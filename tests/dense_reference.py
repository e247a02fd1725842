"""Dense and finite-difference references, a test helper.

The solver works mode by mode and never forms these matrices. The tests
that check the spectral calculus, the block identities and the per-mode
inversion against an independent dense construction build them here, as
m x m matrices from semigroup matrices and dense solves, without the
scalar symbols: O(m^3), so only at small m. The finite-difference
particular part (``fd_particular``) is the reference the Chebyshev
particular part is compared with, and ``earlier_eq`` the earlier form of
the report's ``eq_*`` estimator that the current one is compared with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from bitrans import SIDE_MINUS, EvaluationError, subproblem
from bitrans._spline import CubicSpline


def apply_function(operator, g, tag: str = "") -> np.ndarray:
    """Q diag(g(mu)) Q^T, symmetrized; rejects values that are not finite."""
    mu = operator.eigenvalues
    vals = np.broadcast_to(g(mu), mu.shape).astype(float)
    if not np.all(np.isfinite(vals)):
        j = int(np.argmax(~np.isfinite(vals)))
        raise EvaluationError(
            f"spectral function '{tag}' not finite at eigenvalue mu_{j + 1} = {mu[j]:.6g}"
        )
    q = operator.eigenvectors
    mat = (q * vals) @ q.T
    return 0.5 * (mat + mat.T)


def generator_matrix(operator) -> np.ndarray:
    """Dense generator M = Q diag(g) Q^T, with g = -sqrt(-mu); M^2 = -A."""
    q = operator.eigenvectors
    return (q * operator.generator_eigenvalues) @ q.T


def semigroup(operator, t: float) -> np.ndarray:
    """Semigroup matrix e^{tM} for t >= 0; t = 0 returns the exact identity."""
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    if t == 0:
        return np.eye(operator.m)
    q = operator.eigenvectors
    mat = (q * np.exp(t * operator.generator_eigenvalues)) @ q.T
    return 0.5 * (mat + mat.T)


@dataclass(frozen=True)
class SideOperators:
    """E = e^{delta M}, E2 = e^{2 delta M}, U = I - E2 + 2 delta M E, V = I - E2 - 2 delta M E."""

    E: np.ndarray
    E2: np.ndarray
    U: np.ndarray
    V: np.ndarray

    def u_inv(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.U, rhs)

    def v_inv(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.V, rhs)


def build_side_operators(operator, delta: float) -> SideOperators:
    e = semigroup(operator, delta)
    e2 = semigroup(operator, 2.0 * delta)
    me = generator_matrix(operator) @ e
    eye = np.eye(operator.m)
    return SideOperators(E=e, E2=e2, U=eye - e2 + 2.0 * delta * me, V=eye - e2 - 2.0 * delta * me)


@dataclass(frozen=True)
class DenseOperators:
    """The six interface blocks, the 2m x 2m matrix Lambda and the dense diagnostics.

    ``det_modal_assembled`` is the diagonal of Q^T det_operator() Q.
    """

    operator: object
    minus: SideOperators
    plus: SideOperators
    P1_minus: np.ndarray
    P2_minus: np.ndarray
    P3_minus: np.ndarray
    P1_plus: np.ndarray
    P2_plus: np.ndarray
    P3_plus: np.ndarray
    Lambda: np.ndarray
    det_modal_assembled: np.ndarray = field(init=False)

    def __post_init__(self):
        q = self.operator.eigenvectors
        object.__setattr__(self, "det_modal_assembled",
                           np.einsum("ij,ij->j", q, self.det_operator() @ q))

    @property
    def p1_sum(self) -> np.ndarray:
        return self.P1_plus + self.P1_minus

    @property
    def p2_diff(self) -> np.ndarray:
        return self.P2_plus - self.P2_minus

    @property
    def p3_sum(self) -> np.ndarray:
        return self.P3_plus + self.P3_minus

    def det_operator(self) -> np.ndarray:
        """Assembled determinant operator -M (P1s P3s - P2d^2)."""
        mmat = generator_matrix(self.operator)
        return -mmat @ (self.p1_sum @ self.p3_sum - self.p2_diff @ self.p2_diff)

    def max_commutator(self) -> float:
        """Largest relative pairwise commutator among the system blocks."""
        blocks = [generator_matrix(self.operator), self.p1_sum, self.p2_diff, self.p3_sum]
        worst = 0.0
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                x, y = blocks[i], blocks[j]
                denom = max(np.linalg.norm(x, 2) * np.linalg.norm(y, 2), 1e-300)
                worst = max(worst, np.linalg.norm(x @ y - y @ x, 2) / denom)
        return worst


def assemble_dense_operators(operator, geometry, k_minus: float, k_plus: float) -> DenseOperators:
    """Build every interface block densely, and the block matrix Lambda."""
    minus = build_side_operators(operator, geometry.c)
    plus = build_side_operators(operator, geometry.d)
    eye = np.eye(operator.m)

    def triple(ops: SideOperators, k: float):
        plus_sq = (eye + ops.E) @ (eye + ops.E)
        minus_sq = (eye - ops.E) @ (eye - ops.E)
        return (k * (ops.u_inv(plus_sq) + ops.v_inv(minus_sq)),
                k * (ops.u_inv(eye - ops.E2) + ops.v_inv(eye - ops.E2)),
                k * (ops.u_inv(minus_sq) + ops.v_inv(plus_sq)))

    p1m, p2m, p3m = triple(minus, k_minus)
    p1p, p2p, p3p = triple(plus, k_plus)
    mmat = generator_matrix(operator)
    p1s, p2d, p3s = p1p + p1m, p2p - p2m, p3p + p3m
    lam = np.block([[mmat @ p1s, -p2d], [mmat @ p2d, -p3s]])
    return DenseOperators(operator=operator, minus=minus, plus=plus,
                          P1_minus=p1m, P2_minus=p2m, P3_minus=p3m,
                          P1_plus=p1p, P2_plus=p2p, P3_plus=p3p, Lambda=lam)


def solve_block(reference: DenseOperators, sources):
    """Dense solve of Lambda [psi1; psi2] = [S1; S2]; ``sources`` are modal, the pair physical."""
    op = reference.operator
    rhs = np.concatenate([op.from_modal(sources.s1), op.from_modal(sources.s2)])
    sol = np.linalg.solve(reference.Lambda, rhs)
    return sol[:op.m], sol[op.m:]


def _equation_residual(a, u0, u2, u3, fvals, h: float) -> float:
    """Scaled sup of u'''' + 2 A u'' + A^2 u - f on the interior, u'''' the central difference of u'''.

    Scaled by one plus the largest of the four terms, as the report scales it.
    """
    d4 = (u3[:, 2:] - u3[:, :-2]) / (2.0 * h)
    au2 = a @ u2[:, 1:-1]
    a2u0 = a @ (a @ u0[:, 1:-1])
    ref = max(np.max(np.abs(d4)), 2.0 * np.max(np.abs(au2)),
              np.max(np.abs(a2u0)), np.max(np.abs(fvals)))
    return float(np.max(np.abs(d4 + 2.0 * au2 + a2u0 - fvals)) / (1.0 + ref))


def whole_field_eq(solution, side: str) -> float:
    """The earlier report's ``eq_*``: the whole field's equation residual on the probe grid.

    Physical fields of orders 0, 2 and 3 (homogeneous part included) on the
    solution's ``probe_points`` grid, with the dense A = Q diag(mu) Q^T.
    The homogeneous part solves the equation exactly per mode, so all it
    adds is the differencing error of its u'''; the report's ``eq_*`` must
    flag whatever this flags.
    """
    op = solution.operator
    xs = solution.geometry.grid(side, solution.options.probe_points)
    u0, u2, u3 = (solution.field(side, xs, order) for order in (0, 2, 3))
    fvals = op.eigenvectors @ solution.problem.forcing.sample(side, xs[1:-1])
    return _equation_residual(op.matrix, u0, u2, u3, fvals, xs[1] - xs[0])


def particular_eq(solution, side: str) -> float:
    """The report's ``eq_*`` recomputed in the physical basis with the dense A.

    The residual of the particular part alone, from its order-0..3 terms
    on the solution's ``probe_points`` grid.
    """
    op = solution.operator
    xs = solution.geometry.grid(side, solution.options.probe_points)
    terms = solution.side(side).particular.terms(xs, op.eigenvalues)
    u0, u2, u3 = (op.eigenvectors @ terms[order] for order in (0, 2, 3))
    fvals = op.eigenvectors @ solution.problem.forcing.sample(side, xs[1:-1])
    return _equation_residual(op.matrix, u0, u2, u3, fvals, xs[1] - xs[0])


def earlier_eq(solution, side: str) -> tuple:
    """The report's ``eq_*`` as the earlier estimator formed it: (entry, 1 + ref, rows, block).

    The series part S of the Chebyshev particular part on the
    ``probe_points`` grid: its interior terms from ``_point_table``, and
    S''' at the two ends the stored F''' trace minus H''' recomputed from
    ``_exponential_table`` (the report now reads S''' there from the
    series). Then the report's arithmetic: the (rows, 4, n - 2) modal block
    S'''' (central difference of S'''), A S'', A^2 S and f on the sorted
    rows of ``active`` and the forced side's declared modes, mapped by
    ``from_modes`` and scaled by one plus the largest term, ``ref``.
    """
    op, geometry, forcing = solution.operator, solution.geometry, solution.problem.forcing
    part = solution.side(side).particular
    n = solution.options.probe_points
    xs = geometry.grid(side, n)
    lo, hi = geometry.interval(side)
    h = geometry.length(side) / (n - 1)
    forced = not forcing.vanishes(side)
    active = part.active
    rows = np.union1d(active, forcing.modes) if forced else np.sort(active)
    if not rows.size:
        return 0.0, 1.0, rows, np.zeros((0, 4, n - 2))
    terms = np.zeros((4, op.m, n))
    if active.size:
        mu = op.eigenvalues[active, None]
        _, _, inner, basis = subproblem._point_table(xs, lo, hi, part.f_modal.shape[1])
        vals = np.vstack([part.f_modal, part.w_modal]) @ basis
        f, w = vals.reshape(2, active.size, 2, -1).transpose(0, 2, 1, 3)
        series = np.zeros((4, active.size, n))
        series[:2, :, inner] = f
        series[2:, :, inner] = w - mu * f
        series[3, :, 0], series[3, :, -1] = part.f3_left[active], part.f3_right[active]
        g = -np.sqrt(-mu)
        s1, s2 = (xs[[0, -1]] - lo)[None, :], (hi - xs[[0, -1]])[None, :]
        series[3][:, [0, -1]] -= subproblem._exponential_table(
            g, s1, s2, np.exp(g * s1), np.exp(g * s2), *part.layers[:, :, None])[3]
        terms[:, active] = series
    mu, t = op.eigenvalues[rows, None], terms[:, rows]
    block = np.stack([(t[3, :, 2:] - t[3, :, :-2]) / (2.0 * h), mu * t[2, :, 1:-1],
                      mu**2 * t[0, :, 1:-1],
                      forcing.sample(side, xs[1:-1])[rows] if forced
                      else np.zeros((rows.size, n - 2))], axis=1)
    d4, au2, a2u0, fvals = op.from_modes(rows, block.reshape(rows.size, -1)).reshape(
        op.m, 4, -1).transpose(1, 0, 2)
    ref = max(np.max(np.abs(d4)), 2.0 * np.max(np.abs(au2)),
              np.max(np.abs(a2u0)), np.max(np.abs(fvals)))
    entry = float(np.max(np.abs(d4 + 2.0 * au2 + a2u0 - fvals)) / (1.0 + ref))
    return entry, 1.0 + ref, rows, block


# -- The finite-difference particular part, kept as a reference --------------
#
# Two central-difference Dirichlet solves per mode on the h and h/2 grids,
# one Richardson step, 4th-order one-sided end stencils and one cubic
# spline of [F; w]. Fourth-order accurate; the solver's Chebyshev path
# (``bitrans.solve_particular``) replaced it, and tests compare the two.

_D1_LEFT = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0


@dataclass(frozen=True)
class FDParticular:
    """The finite-difference particular part, with the interface of ``ParticularSolution``.

    ``f_modal`` and ``w_modal`` hold F and w = F'' + mu F of the active
    rows on ``grid``; ``error_estimate`` is the relative size of the
    Richardson correction. These are grid values, not the Chebyshev
    coefficients that the report's ``eq_*`` reads, so a report formed with
    this part in place of the solver's has no meaningful ``eq_*``; the
    tests that put it there read the other entries and the traces.
    """

    side: str
    geometry: object
    grid: np.ndarray
    f_modal: np.ndarray
    w_modal: np.ndarray
    fprime_left: np.ndarray
    fprime_right: np.ndarray
    f3_left: np.ndarray
    f3_right: np.ndarray
    error_estimate: float
    active: np.ndarray

    def __post_init__(self):
        if self.active.size:
            object.__setattr__(self, "_spline",
                               CubicSpline(self.grid, np.vstack([self.f_modal, self.w_modal])))

    @property
    def m(self) -> int:
        return self.fprime_left.size

    @property
    def fprime_interface(self) -> np.ndarray:
        return self.fprime_right if self.side == SIDE_MINUS else self.fprime_left

    @property
    def f3_interface(self) -> np.ndarray:
        return self.f3_right if self.side == SIDE_MINUS else self.f3_left

    def terms(self, xs, mu) -> np.ndarray:
        """Orders 0..3 at ``xs``, shape (4, m, k): two evaluations of the [F; w] spline inside,
        the stored traces (odd orders) and F = F'' = 0 (even orders) at the ends."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros((4, self.m, xs.size))
        rows = self.active
        if not rows.size:
            return out
        lo, hi = self.grid[0], self.grid[-1]
        tol = 1e-10 * (hi - lo)
        at_lo, at_hi = np.abs(xs - lo) <= tol, np.abs(xs - hi) <= tol
        inner = ~(at_lo | at_hi)
        part = np.zeros((4, rows.size, xs.size))
        for nu in (0, 1):
            f_nu, w_nu = np.split(self._spline(xs[inner], nu), 2)
            part[nu][:, inner] = f_nu
            part[nu + 2][:, inner] = w_nu - mu[rows, None] * f_nu
        for order, left, right in ((1, self.fprime_left, self.fprime_right),
                                   (3, self.f3_left, self.f3_right)):
            part[order][:, at_lo] = left[rows, None]
            part[order][:, at_hi] = right[rows, None]
        out[:, rows] = part
        return out


def _fd_factorized(mu: np.ndarray, grids: tuple, fhats: tuple) -> list:
    """Dirichlet solves of (d^2 + mu_j)^2 u = fhat_j as w'' + mu w = fhat, F'' + mu F = w, per grid.

    Each stage is one block-diagonal tridiagonal system over all rows and
    grids, with zero coupling across blocks. Returns one (F, w) pair per
    grid, with the zero ends.
    """
    k = mu.size
    bands = []
    for grid in grids:
        h, n_int = grid[1] - grid[0], grid.size - 2
        ab = np.empty((3, k * n_int))
        ab[0] = ab[2] = 1.0 / h**2
        ab[0, ::n_int] = 0.0
        ab[2, n_int - 1::n_int] = 0.0
        ab[1] = np.repeat(-2.0 / h**2 + mu, n_int)
        bands.append(ab)
    ab = np.hstack(bands)
    cuts = np.cumsum([band.shape[1] for band in bands])[:-1]

    def stage(blocks):
        if not k:
            return blocks
        sol = solve_banded((1, 1), ab, np.concatenate([block.ravel() for block in blocks]))
        return [part.reshape(k, -1) for part in np.split(sol, cuts)]

    w_int = stage([fhat[:, 1:-1] for fhat in fhats])
    f_int = stage(w_int)
    out = []
    for fhat, f_in, w_in in zip(fhats, f_int, w_int):
        f, w = np.zeros(fhat.shape), np.zeros(fhat.shape)
        f[:, 1:-1], w[:, 1:-1] = f_in, w_in
        out.append((f, w))
    return out


def _fd_end_traces(rows: np.ndarray, field: np.ndarray, m: int, h: float):
    """4th-order one-sided end derivatives of the active rows, as (m,) vectors."""
    slab = np.zeros((m, 10))
    slab[rows, :5], slab[rows, 5:] = field[:, :5], field[:, -5:]
    return slab[:, :5] @ _D1_LEFT / h, slab[:, -1:-6:-1] @ -_D1_LEFT / h


def fd_particular(operator_mu, geometry, side: str, forcing, n_x: int = 129) -> FDParticular:
    """The finite-difference particular solve on the ``n_x`` grid, Richardson-extrapolated.

    The declared modes are sampled on the h/2 grid (every other node is
    the h grid), solved on both grids, extrapolated, and their end traces
    taken by one-sided stencils, F''' = w' - mu F'. Same arguments as
    ``bitrans.solve_particular``, so a test can put it in its place.
    """
    mu = np.asarray(operator_mu, dtype=float)
    zm = np.zeros(mu.size)
    grid_c = geometry.grid(side, n_x)
    if forcing.vanishes(side):
        return FDParticular(side, geometry, grid_c, np.zeros((0, n_x)), np.zeros((0, n_x)),
                            zm, zm.copy(), zm.copy(), zm.copy(), 0.0, np.zeros(0, dtype=int))
    grid_f = geometry.grid(side, 2 * n_x - 1)
    fhat_f = forcing.sample_modes(side, grid_f)
    keep = np.any(fhat_f, axis=1)
    active = forcing.modes[keep]
    (f_c, w_c), (f_f, w_f) = _fd_factorized(mu[active], (grid_f[::2], grid_f),
                                            (fhat_f[keep][:, ::2], fhat_f[keep]))
    corr_f = (f_f[:, ::2] - f_c) / 3.0
    f_x = f_f[:, ::2] + corr_f
    w_x = w_f[:, ::2] + (w_f[:, ::2] - w_c) / 3.0
    h = grid_f[2] - grid_f[0]
    fp_l, fp_r = _fd_end_traces(active, f_x, mu.size, h)
    wp_l, wp_r = _fd_end_traces(active, w_x, mu.size, h)
    scale = 1.0 + np.max(np.abs(f_x), initial=0.0)
    estimate = (float(np.max(np.abs(corr_f), initial=0.0) / scale)
                if np.any(fhat_f[:, ::2]) else 0.0)
    return FDParticular(side, geometry, grid_f[::2], f_x, w_x, fp_l, fp_r,
                        wp_l - mu * fp_l, wp_r - mu * fp_r, estimate, active)

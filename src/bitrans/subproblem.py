"""One-sided solvers: particular solutions, source coefficients, evaluation.

Each interval problem is solved by the exact representation

    u(x) = (E1 - E2) a1 + (s1 E1 - s2 E2) a2
         + (E1 + E2) a3 + (s1 E1 + s2 E2) a4 + F(x),

with E1 = e^{s1 M}, E2 = e^{s2 M}, s1 = x - left end, s2 = right end - x.
The coefficients a1..a4 are sums of end contributions of one end map
(``_end_coefficients``; the other end is its reflection): the outer data
and the particular slopes give the boundary-source quadruple phi~, and
the interface values (psi1, psi2) add their end at gamma. F is the
particular solution with homogeneous value and second-derivative
conditions at both interval ends; it is sampled and solved on the
forcing's declared modes only (``ModalForcing.modes``), all of them in
one banded call per factor stage, and every other mode's F is zero, as
is every mode's on a side without a resampler.
Everything here is linear in the data. All operators are functions of
M, so the coefficient algebra runs per mode on eigenbasis coordinates
(``SideSymbols``) and fields are evaluated there too, orders 0..3 in one
table (``modal_fields``); ``evaluate`` maps them back where a physical
value is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._scipy import solve_banded
from ._spline import CubicSpline
from .errors import DimensionMismatchError, ResolutionError
from .problem import SIDE_MINUS, CylinderGeometry, ModalForcing, check_side
from .section_operator import SectionOperator
from .symbols import interval_symbols

# 4th-order one-sided 5-point first-derivative stencils (left end / right end).
_D1_LEFT = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_ENDPOINT_TOL = 1e-10


@dataclass(frozen=True)
class SideSymbols:
    """Per-mode symbols of the operators a one-sided solve consumes.

    In the eigenbasis of M (eigenvalues g_j = -sqrt(-mu_j)) the interval
    operators E = e^{delta M}, U = I - E^2 + 2 delta M E and
    V = I - E^2 - 2 delta M E are diagonal, with entries
    e_j = exp(delta g_j), u_j = u_delta(delta, -mu_j) and
    v_j = v_delta(delta, -mu_j); ``f`` holds f_{delta,1..3}(-mu_j) and the
    determinant remainder g_delta(-mu_j), ``g`` the generator eigenvalues.
    Every coefficient formula below is per-mode arithmetic on these
    arrays, applied to eigenbasis coordinates.
    """

    g: np.ndarray
    delta: float
    e: np.ndarray
    u: np.ndarray
    v: np.ndarray
    f: tuple

    @property
    def m(self) -> int:
        return self.g.size

    @property
    def cond_u(self) -> float:
        """Exact 2-norm condition number of the symmetric positive U."""
        return float(np.max(self.u) / np.min(self.u))

    @property
    def cond_v(self) -> float:
        return float(np.max(self.v) / np.min(self.v))


def side_symbols(operator: SectionOperator, delta: float) -> SideSymbols:
    """Evaluate the one-sided symbols on the spectrum in one pass, O(m)."""
    e, u, v, *f = interval_symbols(delta, -operator.eigenvalues)  # raises where u or v vanishes
    return SideSymbols(g=operator.generator_eigenvalues, delta=delta, e=e, u=u, v=v, f=tuple(f))


def _one_sided_derivative(field: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """4th-order one-sided first derivatives at both ends of (m, n) samples."""
    left = field[:, :5] @ _D1_LEFT / h
    # The stencil is negated, not the product, so a zero row gives +0.0 as
    # ParticularSolution.zero does.
    right = field[:, -1:-6:-1] @ -_D1_LEFT / h
    return left, right


@dataclass(frozen=True)
class ParticularSolution:
    """Particular solution F of one interval with F = F'' = 0 at both ends.

    ``active`` lists the forced modes, and ``f_modal``, ``w_modal`` hold
    their fields F and w = F'' + mu F on the interval grid, one row per
    entry of ``active``; every other mode's F is exactly zero. The
    endpoint first-derivative traces and the third-derivative traces
    F''' = w' - mu F' (exact identity of the factorized problem) are
    vectors over all m modes. The ``error_estimate`` is the relative
    size of the Richardson correction, an observed bound for the
    remaining discretization error. One spline interpolates F and w of
    the active rows together.
    """

    side: str
    geometry: CylinderGeometry
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
        """F' at the interface end (right of minus, left of plus)."""
        return self.fprime_right if self.side == SIDE_MINUS else self.fprime_left

    @property
    def f3_interface(self) -> np.ndarray:
        return self.f3_right if self.side == SIDE_MINUS else self.f3_left

    def terms(self, xs: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Modal F-terms of derivative orders 0..3 at the points ``xs``, shape (4, m, k).

        Interior values take two evaluations of the [F; w] spline: F and
        F' are orders 0 and 1, w - mu F and w' - mu F' orders 2 and 3. At
        the ends, odd orders use the stored traces exactly and even orders
        the built-in homogeneous conditions F = F'' = 0. Rows outside
        ``active`` are 0 and are not sampled.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros((4, self.m, xs.size))
        rows = self.active
        if not rows.size:
            return out
        lo, hi = self.grid[0], self.grid[-1]
        tol = _ENDPOINT_TOL * (hi - lo)
        at_lo = np.abs(xs - lo) <= tol
        at_hi = np.abs(xs - hi) <= tol
        inner = ~(at_lo | at_hi)
        x_in = xs[inner]
        part = np.zeros((4, rows.size, xs.size))
        for nu in (0, 1):
            f_nu, w_nu = np.split(self._spline(x_in, nu), 2)
            part[nu][:, inner] = f_nu
            part[nu + 2][:, inner] = w_nu - mu[rows, None] * f_nu
        for order, left, right in ((1, self.fprime_left, self.fprime_right),
                                   (3, self.f3_left, self.f3_right)):
            part[order][:, at_lo] = left[rows, None]
            part[order][:, at_hi] = right[rows, None]
        out[:, rows] = part
        return out

    @classmethod
    def zero(cls, side: str, geometry: CylinderGeometry, m: int, n_x: int = 33):
        # No active mode: empty field tables and zero traces.
        grid = geometry.grid(side, n_x)
        zm = np.zeros(m)
        return cls(side, geometry, grid, np.zeros((0, n_x)), np.zeros((0, n_x)), zm, zm.copy(),
                   zm.copy(), zm.copy(), 0.0, np.zeros(0, dtype=int))


def _solve_factorized(mu: np.ndarray, grids: tuple, fhats: tuple) -> list:
    """Dirichlet solve of u'''' + 2 mu_j u'' + mu_j^2 u = fhat_j for every row j on every grid.

    Per row the operator factors as (d^2/dx^2 + mu_j)^2: w solves
    w'' + mu_j w = fhat_j and F solves F'' + mu_j F = w, both with zero
    ends. Each stage is one block-diagonal tridiagonal system over all
    rows and grids: the bands (-2/h^2 + mu_j) diag, 1/h^2 off, with the h
    of the block's grid, are stacked with zero coupling across blocks, so
    every block eliminates exactly as it would alone, and mu_j < 0 keeps
    each block strictly diagonally dominant. Returns one (F, w) pair per
    grid, on the full grid with the zero ends; no rows means no solve.
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


def _end_traces(rows: np.ndarray, field: np.ndarray, m: int, h: float):
    """One-sided end derivatives of the active rows' (k, n) ``field``, as (m,) vectors.

    The stencils run on an (m, 10) slab of the first and last five
    columns with each active row at its mode's index, so a mode's traces
    round the same whichever other modes are active.
    """
    slab = np.zeros((m, 10))
    slab[rows, :5], slab[rows, 5:] = field[:, :5], field[:, -5:]
    return _one_sided_derivative(slab, h)


def solve_particular(
    operator_mu: np.ndarray,
    geometry: CylinderGeometry,
    side: str,
    forcing: ModalForcing,
    n_x: int = 129,
) -> ParticularSolution:
    """Solve the homogeneous-ends particular problem on one interval.

    The problem decouples by mode, and only the forcing's declared
    ``modes`` are sampled, once, on the h/2 grid, whose every other node
    is the h grid bit for bit (halving the step is exact). A declared mode
    whose samples are zero has F = 0 exactly; only the other (active)
    modes are solved.
    Per mode mu the fourth-order equation factors as (d^2/dx^2 + mu)^2,
    giving two successive Dirichlet solves, each one block-banded solve
    over the active modes on the h and h/2 grids together; both are
    coercive since mu < 0. Fields and traces are Richardson-extrapolated
    from the two central-difference solutions; first-derivative traces
    use one-sided 4th-order stencils on the extrapolated fields and the
    third-derivative traces use F''' = w' - mu F'. A side without active
    modes makes no solve and builds no spline, and a side without a
    resampler is not even sampled: it returns ``ParticularSolution.zero``.

    Parameters
    ----------
    operator_mu : (m,) ndarray
        Eigenvalues of the section operator (the forcing is modal).
    """
    check_side(side)
    if n_x < 17:
        raise ResolutionError(f"particular solve needs n_x >= 17, got {n_x}")
    mu = np.asarray(operator_mu, dtype=float)
    if forcing.m != mu.size:
        raise DimensionMismatchError(f"forcing has {forcing.m} modes, operator has {mu.size}")
    if forcing.vanishes(side):
        return ParticularSolution.zero(side, geometry, mu.size, n_x)
    grid_f = geometry.grid(side, 2 * n_x - 1)
    fhat_f = forcing.sample_modes(side, grid_f)
    grid_c, fhat_c = grid_f[::2], fhat_f[:, ::2]
    keep = np.any(fhat_f, axis=1)
    active = forcing.modes[keep]
    (f_c, w_c), (f_f, w_f) = _solve_factorized(mu[active], (grid_c, grid_f),
                                               (fhat_c[keep], fhat_f[keep]))
    corr_f = (f_f[:, ::2] - f_c) / 3.0
    f_x = f_f[:, ::2] + corr_f  # = (4 f_fine - f_coarse) / 3 on coarse nodes
    w_x = w_f[:, ::2] + (w_f[:, ::2] - w_c) / 3.0
    h = grid_c[1] - grid_c[0]
    fp_l, fp_r = _end_traces(active, f_x, mu.size, h)
    wp_l, wp_r = _end_traces(active, w_x, mu.size, h)
    scale = 1.0 + np.max(np.abs(f_x), initial=0.0)
    estimate = (float(np.max(np.abs(corr_f), initial=0.0) / scale)
                if np.any(fhat_c) else 0.0)
    return ParticularSolution(
        side=side, geometry=geometry, grid=grid_c,
        f_modal=f_x, w_modal=w_x,
        fprime_left=fp_l, fprime_right=fp_r,
        f3_left=wp_l - mu * fp_l, f3_right=wp_r - mu * fp_r,
        error_estimate=estimate, active=active,
    )


def _check_vectors(m: int, *vectors: np.ndarray) -> list[np.ndarray]:
    out = []
    for vec in vectors:
        arr = np.atleast_1d(np.asarray(vec, dtype=float))
        if arr.shape != (m,):
            raise DimensionMismatchError(f"expected vector of length {m}, got {arr.shape}")
        out.append(arr)
    return out


def _end_coefficients(ops: SideSymbols, value, slope, right: bool) -> tuple:
    """Coefficients (a1..a4) that a value phi and a slope sigma at one interval end contribute.

    At the left end (s1 = 0), with n = e (phi + delta (g phi + sigma)):
    a1 = (phi + n) / 2u, a2 = -[(g phi - sigma) + e (g phi + sigma)] / 2u,
    a3 = (phi - n) / 2v and a4 = -[(g phi - sigma) - e (g phi + sigma)] / 2v.
    The right end is the reflection that swaps s1 and s2: the slope
    changes sign, and so do a1 and a2.
    """
    sigma = -slope if right else slope
    gphi = ops.g * value
    n = ops.e * (value + ops.delta * (gphi + sigma))
    odd, even = gphi - sigma, ops.e * (gphi + sigma)
    half = -0.5 if right else 0.5
    return (half * (value + n) / ops.u, -half * (odd + even) / ops.u,
            0.5 * (value - n) / ops.v, -0.5 * (odd - even) / ops.v)


def _add(first: tuple, second: tuple) -> tuple:
    return tuple(p + q for p, q in zip(first, second))


def phi_tilde_minus(ops: SideSymbols, phi1, phi2, fprime_a, fprime_gamma):
    """Boundary-source quadruple of the minus interval: (phi1, phi2 - F'(a)) at a, -F' at gamma."""
    phi1, phi2, fpa, fpg = _check_vectors(ops.m, phi1, phi2, fprime_a, fprime_gamma)
    return _add(_end_coefficients(ops, phi1, phi2 - fpa, right=False),
                _end_coefficients(ops, 0.0, -fpg, right=True))


def phi_tilde_plus(ops: SideSymbols, phi1, phi2, fprime_gamma, fprime_b):
    """Boundary-source quadruple of the plus interval: (phi1, phi2 - F'(b)) at b, -F' at gamma."""
    phi1, phi2, fpg, fpb = _check_vectors(ops.m, phi1, phi2, fprime_gamma, fprime_b)
    return _add(_end_coefficients(ops, phi1, phi2 - fpb, right=True),
                _end_coefficients(ops, 0.0, -fpg, right=False))


def alphas_minus(ops: SideSymbols, psi1, psi2, phi_tilde):
    """Representation coefficients of the minus interval: phi~ plus (psi1, psi2) at gamma."""
    psi1, psi2 = _check_vectors(ops.m, psi1, psi2)
    return _add(phi_tilde, _end_coefficients(ops, psi1, psi2, right=True))


def alphas_plus(ops: SideSymbols, psi1, psi2, phi_tilde):
    """Representation coefficients of the plus interval: phi~ plus (psi1, psi2) at gamma."""
    psi1, psi2 = _check_vectors(ops.m, psi1, psi2)
    return _add(phi_tilde, _end_coefficients(ops, psi1, psi2, right=False))


def interface_fluxes(ops: SideSymbols, side: str, alphas: tuple, fprime=None, f3=None):
    """Closed-form flux traces t2 = u'' - M^2 u and t3 = u''' - M^2 u' at gamma, per mode.

    d^2 E = g^2 E, so the a1, a3 terms cancel exactly, and F = F'' = 0 at
    gamma; with (E1, E2) = (e, 1) on the minus side and (1, e) on the plus
    side, t2 = 2g [(E1 - E2) a2 + (E1 + E2) a4] and
    t3 = 2g^2 [(E1 + E2) a2 + (E1 - E2) a4] + F''' - g^2 F', with the
    particular traces F', F''' at gamma when given (else F = 0).
    Subtracting differentiated fields instead rounds at eps g^3 |u|.
    """
    e1, e2 = (ops.e, 1.0) if check_side(side) == SIDE_MINUS else (1.0, ops.e)
    g, a2, a4 = ops.g, alphas[1], alphas[3]
    odd, even = e1 - e2, e1 + e2
    two_g = 2.0 * g
    t2 = two_g * (odd * a2 + even * a4)
    t3 = two_g * g * (even * a2 + odd * a4)
    if fprime is not None:
        t3 = t3 + (f3 - g * g * fprime)
    return t2, t3


def end_values(ops: SideSymbols, side: str, alphas: tuple,
               particular: Optional[ParticularSolution] = None) -> tuple:
    """Closed-form u and u' at both ends of one interval, per mode: ((u, u') left, (u, u') right).

    ``SubproblemSolution.modal_fields``' formulas with its grouping A = a1 + a3,
    B = a2 + a4, C = a3 - a1, D = a4 - a2, at (E1, E2, s1, s2) = (1, e, 0, delta)
    on the left end and (e, 1, delta, 0) on the right; the unit factors and
    zero terms are dropped, which changes no bit, so the values match
    ``modal_fields`` at the ends exactly, without an exponential. F = F'' = 0
    at every end, so a particular part with active modes adds only its F'
    traces.
    """
    check_side(side)
    g, e, delta = ops.g, ops.e, ops.delta
    a1, a2, a3, a4 = alphas
    big_a, big_b, big_c, big_d = a1 + a3, a2 + a4, a3 - a1, a4 - a2
    d = e * big_d  # left: b = B, p = A
    n = e * big_c + delta * d
    b = e * big_b  # right: d = D, n = C
    p = e * big_a + delta * b
    du_left, du_right = g * (big_a - n) + (big_b - d), g * (p - big_c) + (b - big_d)
    if particular is not None and particular.active.size:
        du_left, du_right = du_left + particular.fprime_left, du_right + particular.fprime_right
    return (big_a + n, du_left), (p + big_c, du_right)


@dataclass(frozen=True)
class SubproblemSolution:
    """Assembled one-sided solution: coefficients plus particular part.

    ``alphas`` are eigenbasis coordinates; ``modal_fields`` evaluates the
    field and its first three x-derivatives in the eigenbasis (the
    semigroup factors are diagonal there), exactly in x for the
    homogeneous part, and ``evaluate`` maps one order back.
    """

    side: str
    geometry: CylinderGeometry
    operator: SectionOperator
    alphas: tuple
    particular: Optional[ParticularSolution] = None

    def __post_init__(self):
        m = self.operator.m
        _check_vectors(m, *self.alphas)
        if len(self.alphas) != 4:
            raise DimensionMismatchError("need exactly four coefficient vectors")
        check_side(self.side)

    def modal_fields(self, x) -> np.ndarray:
        """Eigenbasis values of the field and its x-derivatives of orders 0..3, shape (4, m, k).

        Per mode u = E1 (A + s1 B) + E2 (C + s2 D), A = a1 + a3, B = a2 + a4,
        C = a3 - a1, D = a4 - a2, and d/dx E1 = g E1, d/dx E2 = -g E2. With
        b = E1 B, d = E2 D, p = E1 A + s1 b and n = E2 C + s2 d: u = p + n,
        u' = g (p - n) + (b - d), u'' = g^2 (p + n) + 2g (b + d) and
        u''' = g^2 [g (p - n) + 3 (b - d)]. Points within 1e-10 of the
        interval length outside an end are moved onto it; points farther
        out raise ValueError.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.geometry.interval(self.side)
        tol = 1e-10 * (hi - lo)
        if np.any(xs < lo - tol) or np.any(xs > hi + tol):
            raise ValueError(f"evaluation points outside [{lo}, {hi}] on side {self.side!r}")
        xs = np.clip(xs, lo, hi)
        gm = self.operator.generator_eigenvalues[:, None]
        s1, s2 = (xs - lo)[None, :], (hi - xs)[None, :]
        e1, e2 = np.exp(s1 * gm), np.exp(s2 * gm)
        a1, a2, a3, a4 = (a[:, None] for a in self.alphas)
        b = e1 * (a2 + a4)
        d = e2 * (a4 - a2)
        p = e1 * (a1 + a3) + s1 * b
        n = e2 * (a3 - a1) + s2 * d
        odd = gm * (p - n)
        out = np.empty((4,) + p.shape)
        out[0], out[1] = p + n, odd + (b - d)
        out[2], out[3] = gm**2 * out[0] + 2.0 * gm * (b + d), gm**2 * (odd + 3.0 * (b - d))
        part = self.particular
        if part is not None and part.active.size:
            out += part.terms(xs, self.operator.eigenvalues)
        return out

    def evaluate(self, x, order: int = 0) -> np.ndarray:
        """Physical-basis field or derivative values at x (scalar -> (m,), array -> (m, k))."""
        if order not in (0, 1, 2, 3):
            raise ValueError(f"derivative order must be 0..3, got {order}")
        out = self.operator.from_modal(self.modal_fields(x)[order])
        return out[:, 0] if np.ndim(x) == 0 else out

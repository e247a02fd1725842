"""Method-independent ground truth for the transmission problem.

Three sources of truth live here, none of which touches the
representation-formula machinery:

* one closed-form case, ``ExactCase``: per declared mode and side a
  polynomial plus an exponential pair, with two builders. Homogeneous
  cases (``manufactured_homogeneous``) are pure exponential pairs, which
  satisfy both flux transmission conditions for any diffusivities;
  forced cases (``manufactured_forced``) invert the flux conditions on a
  polynomial profile for one pair of diffusivities,
* a direct coupled finite-difference solve of the transmission boundary
  value problem in mixed form (second-order accurate): per-side
  tridiagonal interiors, swept for all modes at once, and one table of
  the 8 end and interface rows (``direct_solve``, ``_end_rows``).

Convergence studies and pairwise comparisons close the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._spline import CubicSpline
from ._tridiagonal import factor_banded, solve_banded
from .errors import AnomalyError, DimensionMismatchError, InvalidGeometryError
from .problem import (
    SIDE_MINUS,
    SIDE_PLUS,
    SIDES,
    BoundaryData,
    CylinderGeometry,
    ModalForcing,
    TransmissionProblem,
    check_grid,
    check_modes,
    check_side,
)
from .section_operator import SectionOperator
from .subproblem import PARTICULAR_MIN_N_X

FLOOR = 1e-9  # error level treated as the linear-algebra floor in rate fits
ORACLE_MIN_N_X = 33
CONVERGENCE_MIN_N_X = {"representation": PARTICULAR_MIN_N_X, "direct": ORACLE_MIN_N_X}


@dataclass(frozen=True)
class ExactCase:
    """Closed-form solution of the transmission problem on its declared modes.

    Row i holds mode j = ``modes[i]``, per side, as
    u_j(x) = p(x - gamma) + a e^{s_j (x - gamma)} + b e^{-s_j (x - gamma)}
    with s_j = sqrt(-mu_j): ``polys`` holds p, shape (side, power, row), and
    ``coeffs`` holds a and b, shape (side, 2, row); every other mode is
    zero. ``interface`` is the modal pair (psi1, psi2), shape (2, m).
    ``forcing_polys`` holds each side's forcing f = w'' + mu w, with
    w = u'' + mu u, in the layout of ``polys``; ``diffusivities`` is the
    (k_minus, k_plus) a forced case was built for. Both are None for a
    homogeneous case, whose fields satisfy the flux conditions for any
    diffusivities. Built by ``manufactured_homogeneous`` and
    ``manufactured_forced``.
    """

    operator: SectionOperator
    geometry: CylinderGeometry
    modes: np.ndarray
    polys: np.ndarray
    coeffs: np.ndarray
    interface: np.ndarray
    forcing_polys: Optional[np.ndarray] = None
    diffusivities: Optional[tuple] = None

    def modal_field(self, side: str, xs, order: int = 0) -> np.ndarray:
        """Eigenbasis values of the ``order``-th x-derivative at ``xs``, shape (m, len(xs)).

        A zero exponential coefficient contributes exactly 0: its
        exponential is not evaluated, so it cannot overflow into a NaN.
        """
        k = SIDES.index(check_side(side))
        xi = np.atleast_1d(np.asarray(xs, dtype=float)) - self.geometry.gamma
        s = np.sqrt(-self.operator.eigenvalues[self.modes])[:, None]
        a, b = self.coeffs[k][..., None]
        shape = (s.size, xi.size)
        grow = np.exp(s * xi, out=np.zeros(shape), where=a != 0.0)
        decay = np.exp(-s * xi, out=np.zeros(shape), where=b != 0.0)
        out = np.zeros((self.operator.m, xi.size))
        out[self.modes] = (npoly.polyval(xi, npoly.polyder(self.polys[k], order))
                           + s**order * (a * grow + (-1.0) ** order * b * decay))
        return out

    def field(self, side: str, xs, order: int = 0) -> np.ndarray:
        return self.operator.from_modal(self.modal_field(side, xs, order))

    def boundary_data(self) -> BoundaryData:
        ends = ((SIDE_MINUS, self.geometry.a), (SIDE_PLUS, self.geometry.b))
        return BoundaryData(*(self.field(side, x, order)[:, 0] for side, x in ends for order in (0, 1)))

    def psi(self):
        """Exact interface data (psi1, psi2) in the physical basis."""
        return tuple(self.operator.from_modal(row) for row in self.interface)

    def forcing(self) -> ModalForcing:
        """Zero for a homogeneous case, else one polynomial resampler per side on ``modes``."""
        if self.forcing_polys is None:
            return ModalForcing.zero(self.operator.m, self.geometry)
        gamma = self.geometry.gamma
        funcs = [lambda xs, f=f: npoly.polyval(np.asarray(xs) - gamma, f) for f in self.forcing_polys]
        return ModalForcing.from_functions(self.geometry, self.operator.m, *funcs, modes=self.modes)


def _finite(case: ExactCase) -> ExactCase:
    """``case``, once its value and slope at both outer ends are finite floats.

    Else ValueError naming the first mode and side that are not: there
    the closed form itself overflows, so no solve can be checked against it.
    """
    geom = case.geometry
    for side, end in ((SIDE_MINUS, geom.a), (SIDE_PLUS, geom.b)):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.stack([case.modal_field(side, end, order)[case.modes, 0] for order in (0, 1)])
        bad = case.modes[~np.all(np.isfinite(vals), axis=0)]
        if bad.size:
            raise ValueError(f"mode {bad[0]}, {side} side: the closed form's value or slope at "
                             f"x = {end:g} is not finite in floating point")
    return case


def manufactured_homogeneous(operator: SectionOperator, geometry: CylinderGeometry,
                             mode, a1, a2) -> ExactCase:
    """Exact homogeneous case: per mode u = a1 e^{s (x - gamma)} + a2 e^{-s (x - gamma)}.

    The same expression on both intervals. Since u'' + mu u = 0
    pointwise, both flux transmission conditions hold for any
    diffusivities, and psi1 = a1 + a2, psi2 = s (a1 - a2) modally.
    ``mode`` may be an index with scalar coefficients, or a sequence of
    distinct indices (``check_modes``) with matching coefficient
    sequences. ValueError if every coefficient vanishes, or if the closed
    form is not finite at an outer end (``_finite``).
    """
    modes = check_modes("modes", [mode] if np.ndim(mode) == 0 else mode, operator.m)
    c1 = np.atleast_1d(np.asarray(a1, dtype=float))
    c2 = np.atleast_1d(np.asarray(a2, dtype=float))
    if not (modes.size == c1.size == c2.size):
        raise DimensionMismatchError("mode and coefficient lists must match in length")
    if np.max(np.abs(c1)) == 0.0 and np.max(np.abs(c2)) == 0.0:
        raise ValueError("coefficients must not all vanish")
    interface = np.zeros((2, operator.m))
    interface[:, modes] = c1 + c2, np.sqrt(-operator.eigenvalues[modes]) * (c1 - c2)
    return _finite(ExactCase(operator, geometry, modes, np.zeros((2, 1, modes.size)),
                             np.array([[c1, c2]] * 2), interface))


def _poly_particular(w: np.ndarray, mu: float) -> np.ndarray:
    """Polynomial p with p'' + mu p = w, by downward recurrence (mu != 0)."""
    p = np.zeros_like(w)
    for i in range(w.size - 1, -1, -1):
        upper = (i + 2) * (i + 1) * p[i + 2] if i + 2 < w.size else 0.0
        p[i] = (w[i] - upper) / mu
    return p


def manufactured_forced(
    operator: SectionOperator,
    geometry: CylinderGeometry,
    k_minus: float,
    k_plus: float,
    mode: int,
    profile: Sequence[float],
    psi1: float = 0.0,
    psi2: float = 0.0,
) -> ExactCase:
    """Manufactured forced case on one mode, exercising diffusivity asymmetry.

    Built from a polynomial profile r by prescribing the flux fields
    w_- = k+ r and w_+ = k- r (so k- w_- = k+ w_+ identically, satisfying
    both flux conditions), integrating u'' + mu u = w outward from the
    interface values (psi1, psi2), and reading the forcing off the
    equation. The two one-sided fields genuinely differ when k+ != k-.
    ``profile`` holds ascending coefficients of r in powers of
    (x - gamma); degree at most 6. ``mode`` goes through ``check_modes``.
    ValueError if the closed form is not finite at an outer end
    (``_finite``).
    """
    modes = check_modes("mode", (mode,), operator.m)
    r = np.atleast_1d(np.asarray(profile, dtype=float))
    if r.ndim != 1 or r.size == 0 or r.size > 7 or not np.all(np.isfinite(r)):
        raise ValueError(f"profile must list 1 to 7 finite coefficients, got {r.tolist()}")
    mu = float(operator.eigenvalues[mode])
    s = np.sqrt(-mu)
    polys, coeffs, f_polys = [], [], []
    for k_target in (k_plus, k_minus):  # w_- = k+ r, then w_+ = k- r
        w = k_target * r
        p = _poly_particular(w, mu)
        c1 = psi1 - p[0]
        c2 = psi2 - (p[1] if p.size > 1 else 0.0)
        polys.append(p[:, None])
        coeffs.append([[0.5 * (c1 + c2 / s)], [0.5 * (c1 - c2 / s)]])
        f_polys.append(npoly.polyadd(npoly.polyder(w, 2), mu * w)[:, None])
    return _finite(ExactCase(operator, geometry, modes, np.array(polys), np.array(coeffs),
                             np.outer((psi1, psi2), np.eye(1, operator.m, mode)),
                             np.array(f_polys), (k_minus, k_plus)))


def _end_rows(hm: float, hp: float, k_minus: float, k_plus: float) -> np.ndarray:
    """Weights of the 8 end and interface rows of every mode, shape (side, row, slot, kind).

    The rows, in order: u(a) and u'(a); continuity of u and of u',
    proportionality of w' and of w at gamma; u'(b) and u(b). None
    depends on the mode. They reach the four nodes nearest each end of a
    side: slots 0..3 are nodes 0..3 and slots 4..7 nodes n-4..n-1; kind 0
    is u and kind 1 is w. A derivative takes the second-order one-sided
    stencil toward the interior.
    """
    dm, dp = (np.array([3.0, -4.0, 1.0]) / (2.0 * h) for h in (hm, hp))
    rows = np.zeros((2, 8, 8, 2))
    minus, plus = rows
    last = slice(7, 4, -1)  # nodes n-1, n-2, n-3
    minus[0, 0, 0] = 1.0
    minus[1, :3, 0] = -dm
    minus[2, 7, 0], plus[2, 0, 0] = 1.0, -1.0
    minus[3, last, 0], plus[3, :3, 0] = dm, dp
    minus[4, last, 1], plus[4, :3, 1] = k_minus * dm, k_plus * dp
    minus[5, 7, 1], plus[5, 0, 1] = k_minus, -k_plus
    plus[6, last, 0] = dp
    plus[7, 7, 0] = 1.0
    return rows


@dataclass(frozen=True)
class OracleSolution:
    """Direct finite-difference solution with its mixed fields."""

    operator: SectionOperator
    geometry: CylinderGeometry
    k_minus: float
    k_plus: float
    grid_minus: np.ndarray
    grid_plus: np.ndarray
    u_minus: np.ndarray
    u_plus: np.ndarray
    w_minus: np.ndarray
    w_plus: np.ndarray
    solve_residual: float

    def grid(self, side: str) -> np.ndarray:
        check_side(side)
        return self.grid_minus if side == SIDE_MINUS else self.grid_plus

    @cached_property
    def _u_splines(self) -> dict:
        """Each side's spline of u, built once per solution."""
        return {SIDE_MINUS: CubicSpline(self.grid_minus, self.u_minus),
                SIDE_PLUS: CubicSpline(self.grid_plus, self.u_plus)}

    def modal_field(self, side: str, xs, order: int = 0) -> np.ndarray:
        """Eigenbasis values of order 0..2 at the points ``xs`` of ``side`` (``clip_points``)."""
        xs = self.geometry.clip_points(side, xs)
        if order in (0, 1):
            return self._u_splines[side](xs, order)
        if order == 2:
            u = self.u_minus if side == SIDE_MINUS else self.u_plus
            w = self.w_minus if side == SIDE_MINUS else self.w_plus
            mu = self.operator.eigenvalues[:, None]
            return CubicSpline(self.grid(side), w - mu * u)(xs)
        raise ValueError(f"oracle fields support orders 0..2, got {order}")

    def field(self, side: str, xs, order: int = 0) -> np.ndarray:
        return self.operator.from_modal(self.modal_field(side, xs, order))


def direct_solve(
    operator: SectionOperator,
    geometry: CylinderGeometry,
    k_minus: float,
    k_plus: float,
    forcing: Optional[ModalForcing] = None,
    boundary: Optional[BoundaryData] = None,
    n_x: int = 129,
) -> OracleSolution:
    """Coupled second-order finite-difference solve of all modes in one pass.

    Mode j's unknowns are u and w = u'' + mu_j u at the n_x nodes of each
    side. An interior node carries u'' + mu_j u = w and w'' + mu_j w = f
    by central differences: per side, tridiagonal rows with 1/h^2 off the
    diagonal and -2/h^2 + mu_j on it, strictly diagonally dominant for
    mu_j < 0. The 8 end and interface rows are ``_end_rows``. One
    ``factor_banded`` of the interiors, batched over (mode, side), serves
    two sweeps, first of the w rows and then of the u rows, which write
    every interior value as an affine function of its side's four end
    values (u and w at either end). The end rows are then one 8 x 8
    system per mode in those values (the Schur complement), solved by one
    batched ``np.linalg.solve`` with partial pivoting. The largest
    per-mode backward error over every row, max|Ax - b| / (||A|| ||x|| +
    ||b||) in the infinity norm, must stay at linear-solve level.
    Strictly independent of the representation route: it never touches
    semigroups, solvability operators, or interface-source algebra, only
    the spectrum of the section operator. Its inputs form a ``TransmissionProblem``;
    ``n_x`` is at least ``ORACLE_MIN_N_X`` (``check_grid``).
    """
    check_grid(n_x, ORACLE_MIN_N_X)
    m, n = operator.m, n_x
    problem = TransmissionProblem(operator, geometry, k_minus, k_plus,
                                  ModalForcing.zero(m, geometry) if forcing is None else forcing,
                                  BoundaryData.zeros(m) if boundary is None else boundary)
    forcing, boundary = problem.forcing, problem.boundary
    hm, hp = geometry.c / (n - 1), geometry.d / (n - 1)
    try:
        finite = all(0.0 < 1.0 / h**2 < np.inf for h in (hm, hp))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise InvalidGeometryError(
            f"axial steps h = {hm:.3e}, {hp:.3e} leave 1/h^2 outside the float range"
        )
    rows = _end_rows(hm, hp, k_minus, k_plus)
    grid_m = geometry.grid(SIDE_MINUS, n)
    grid_p = geometry.grid(SIDE_PLUS, n)
    # Interior forcing as (node, mode, side); the end rows' right-hand
    # sides are the boundary data, zero at the interface.
    f = np.stack([forcing.sample(SIDE_MINUS, grid_m),
                  forcing.sample(SIDE_PLUS, grid_p)], axis=-1)[:, 1:-1].transpose(1, 0, 2)
    ends = np.zeros((m, 8))
    ends[:, [0, 1, 7, 6]] = np.stack([operator.to_modal(phi) for phi in (
        boundary.phi1_minus, boundary.phi2_minus, boundary.phi1_plus, boundary.phi2_plus)]).T
    off = np.array([1.0 / hm**2, 1.0 / hp**2])
    diag = np.array([-2.0 / hm**2, -2.0 / hp**2]) + operator.eigenvalues[:, None]  # (mode, side)
    bands = np.stack(np.broadcast_arrays(off, diag, off))[:, None]
    lu = factor_banded(np.broadcast_to(bands, (3, n - 2, m, 2)))

    # Sweep arrays are (node, term, mode, side): term 0 is the value with
    # zero end values, terms 1..4 the response to the side's u and w at
    # its first node, then at its last; those end values move to the
    # right-hand side with the 1/h^2 of the rows next to them.
    def sweep(kind, b, rhs):
        b[:, 0] += rhs
        b[0, 1 + kind] -= off
        b[-1, 3 + kind] -= off
        return solve_banded(lu, b)

    w = sweep(1, np.zeros((n - 2, 5, m, 2)), f)
    u = sweep(0, w.copy(), 0.0)  # u'' + mu u - w = 0: w, term by term, moves to the right

    near = np.r_[0:4, n - 4:n]
    terms = np.zeros((2, m, near.size, 2, 5))  # (side, mode, slot, kind, term)
    terms[:, :, 1:-1] = np.stack([u[near[1:-1] - 1], w[near[1:-1] - 1]],
                                 axis=1).transpose(4, 3, 0, 1, 2)
    for slot, kind, term in ((0, 0, 1), (0, 1, 2), (-1, 0, 3), (-1, 1, 4)):
        terms[:, :, slot, kind, term] = 1.0
    schur = np.zeros((m, 8, 9))  # (mode, end row, term 0 then the 8 end values)
    for side in range(2):
        part = rows[side].reshape(8, 16) @ terms[side].reshape(m, 16, 5)
        schur[..., 0] += part[..., 0]
        schur[..., 1 + 4 * side:5 + 4 * side] = part[..., 1:]
    side_ends = np.linalg.solve(schur[..., 1:], (ends - schur[..., 0])[..., None])
    side_ends = side_ends.reshape(m, 2, 4)

    x = np.empty((2, m, 2, n))  # (kind, mode, side, node)
    x[..., [0, -1]] = side_ends.reshape(m, 2, 2, 2).transpose(3, 0, 1, 2)
    for kind, field in enumerate((u, w)):
        inner = field[:, 0]
        for term in range(4):
            inner += field[:, 1 + term] * side_ends[..., term]
        x[kind, ..., 1:-1] = inner.transpose(1, 2, 0)

    # Backward error over every row. A u row, with 1/h^2, the diagonal,
    # 1/h^2 and the -1 of w, has the largest interior row sum of |A_j|.
    interior = (off[:, None] * (x[..., :-2] + x[..., 2:]) + diag[..., None] * x[..., 1:-1]
                - np.stack([x[1, ..., 1:-1], f.transpose(1, 2, 0)]))
    at_ends = np.einsum("srnk,kmsn->mr", rows, x[..., near]) - ends
    norm_a = np.maximum(np.max(np.abs(rows).sum(axis=(0, 2, 3))),
                        np.max(2.0 * off + np.abs(diag), axis=1) + 1.0)
    norm_b = np.maximum(np.max(np.abs(f), axis=(0, 2)), np.max(np.abs(ends), axis=1))
    residual = np.maximum(np.max(np.abs(interior), axis=(0, 2, 3)), np.max(np.abs(at_ends), axis=1))
    scale = norm_a * np.maximum(np.max(np.abs(x), axis=(0, 2, 3)), 1e-300) + norm_b + 1e-300
    worst = float(np.max(residual / scale))  # a NaN propagates and fails the gate
    if not worst <= 1e-12:
        raise AnomalyError(
            f"direct solve backward error {worst:.3e} above linear-solve level "
            "(the discrete system should be uniquely solvable)"
        )
    (u_m, u_p), (w_m, w_p) = x.transpose(0, 2, 1, 3)
    return OracleSolution(operator, geometry, k_minus, k_plus,
                          grid_m, grid_p, u_m, u_p, w_m, w_p, worst)


@dataclass(frozen=True)
class ErrorMetrics:
    """Sup and scaled L2 distances between two fields over a probe grid."""

    sup: float
    l2_scaled: float

    def to_dict(self) -> dict:
        return {"sup": self.sup, "l2_scaled": self.l2_scaled}


def compare(sol_a, sol_b, probe_points: int = 65) -> ErrorMetrics:
    """Distance between two solutions exposing ``field(side, xs)``, of one geometry exactly.

    The two must share the geometry and the section operator (equal spectral
    data, ``SectionOperator.__eq__``), else ValueError. ``probe_points``
    (at least 2, ``check_grid``) is the per-side grid size.
    """
    check_grid(probe_points, 2, "probe_points")
    geom_a, geom_b = sol_a.geometry, sol_b.geometry
    if geom_a != geom_b:
        raise ValueError(f"incompatible cases: geometries differ ({geom_a} vs {geom_b})")
    op_a, op_b = sol_a.operator, sol_b.operator
    if op_a != op_b:
        raise ValueError(f"incompatible cases: section operators differ ({op_a.label!r} vs "
                         f"{op_b.label!r})")
    sup = 0.0
    sq_sum = 0.0
    count = 0
    scale = 0.0
    for side in SIDES:
        xs = geom_a.grid(side, probe_points)
        fa = sol_a.field(side, xs, 0)
        fb = sol_b.field(side, xs, 0)
        diff = fa - fb
        sup = max(sup, float(np.max(np.abs(diff))))
        sq_sum += float(np.sum(diff**2))
        count += diff.size
        scale = max(scale, float(np.max(np.abs(fa))))
    return ErrorMetrics(sup=sup, l2_scaled=float(np.sqrt(sq_sum / count) / (1.0 + scale)))


def check_levels(levels: Sequence[int], method: str = "representation") -> list:
    """The one gate of the convergence settings; each message starts with ``method`` or ``levels``.

    ValueError unless the method is representation|direct and the levels at least 3 strictly
    increasing integers; ``check_grid`` at the method's ``CONVERGENCE_MIN_N_X`` for each level.
    """
    if not isinstance(method, str) or method not in CONVERGENCE_MIN_N_X:
        raise ValueError(f"method must be representation|direct, got {method!r}")
    for n in levels:
        check_grid(n, CONVERGENCE_MIN_N_X[method], "levels")
    ns = [int(n) for n in levels]
    if len(ns) < 3 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"levels: need at least 3 strictly increasing refinement levels, got {ns}")
    return ns


@dataclass(frozen=True)
class RateTable:
    """Per-level errors and convergence rates of a refinement study."""

    method: str
    n_values: tuple
    errors: tuple
    rates: tuple
    fitted_rate: float
    floor: bool

    def to_csv_rows(self):
        rows = [("n_x", "error", "rate")]
        for i, (n, err) in enumerate(zip(self.n_values, self.errors)):
            if self.floor:
                rate = "floor"
            elif i == 0:
                rate = ""
            else:
                rate = repr(self.rates[i - 1])
            rows.append((repr(n), repr(err), rate))
        return rows


def convergence_study(case, method: str, refinements: Sequence[int],
                      k_minus: Optional[float] = None, k_plus: Optional[float] = None,
                      probe_points: int = 65) -> RateTable:
    """Refinement study of a solver against a closed-form case.

    ``case`` is an ``ExactCase``. A forced case holds for its own
    ``diffusivities`` only: they are used, and ValueError is raised when
    ``k_minus`` or ``k_plus`` is given and differs from them. A
    homogeneous case holds for any, so both must be given. ``method``
    selects the representation-formula solver or the direct
    finite-difference oracle, and ``check_levels`` checks both it and the
    levels; ``probe_points`` goes through ``check_grid`` as ``compare``'s
    does. Errors at or below the linear-algebra floor are flagged instead
    of fitted.
    """
    from .transmission import SolveOptions, solve_transmission

    ns = check_levels(refinements, method)
    check_grid(probe_points, 2, "probe_points")
    given = (k_minus, k_plus)
    km, kp = case.diffusivities or given
    if km is None or kp is None:
        raise ValueError("diffusivities required for a case that does not carry them")
    if any(k is not None and k != own for k, own in zip(given, (km, kp))):
        raise ValueError(f"diffusivities {given} differ from the forced case's own {(km, kp)}")
    op, geom = case.operator, case.geometry
    forcing = case.forcing()
    bc = case.boundary_data()
    errors = []
    for n in ns:
        if method == "representation":
            sol = solve_transmission(op, geom, km, kp, forcing, bc,
                                     SolveOptions(n_x=n))
            err = compare(sol, case, probe_points).sup
        else:
            osol = direct_solve(op, geom, km, kp, forcing, bc, n_x=n)
            err = 0.0
            for side in SIDES:
                xs = osol.grid(side)
                fields = osol.u_minus if side == SIDE_MINUS else osol.u_plus
                exact = op.to_modal(case.field(side, xs, 0))
                err = max(err, float(np.max(np.abs(fields - exact))))
        errors.append(err)
    floor = all(err <= FLOOR for err in errors)
    hs = [1.0 / (n - 1) for n in ns]
    if floor:
        rates = tuple(float("nan") for _ in range(len(ns) - 1))
        fitted = float("nan")
    else:
        rates = tuple(
            float(np.log(errors[i] / errors[i + 1]) / np.log(hs[i] / hs[i + 1]))
            for i in range(len(ns) - 1)
        )
        logs_h = np.log(hs)
        logs_e = np.log(np.maximum(errors, 1e-300))
        fitted = float(np.polyfit(logs_h, logs_e, 1)[0])
    return RateTable(method=method, n_values=tuple(ns), errors=tuple(errors),
                     rates=rates, fitted_rate=fitted, floor=floor)

"""Method-independent ground truth for the transmission problem.

Three sources of truth live here, none of which touches the
representation-formula machinery:

* closed-form homogeneous solutions (per-mode exponential pairs, which
  satisfy both flux transmission conditions for any diffusivities),
* manufactured forced solutions built by inverting the flux conditions
  on a polynomial profile,
* a direct coupled finite-difference solve of the transmission boundary
  value problem in mixed form (second-order accurate).

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


class _ClosedFormCase:
    """Outer boundary data read off a closed-form ``field(side, xs, order)``."""

    def boundary_data(self) -> BoundaryData:
        geom = self.geometry
        return BoundaryData(
            self.field(SIDE_MINUS, geom.a, 0)[:, 0],
            self.field(SIDE_MINUS, geom.a, 1)[:, 0],
            self.field(SIDE_PLUS, geom.b, 0)[:, 0],
            self.field(SIDE_PLUS, geom.b, 1)[:, 0],
        )


@dataclass(frozen=True)
class ExactCase(_ClosedFormCase):
    """Closed-form homogeneous solution from per-mode exponential pairs.

    u_j(x) = a1_j e^{s_j (x - gamma)} + a2_j e^{-s_j (x - gamma)} with
    s_j = sqrt(-mu_j), the same expression on both intervals. Since
    u_j'' + mu_j u_j = 0 pointwise, both flux transmission conditions
    hold identically for arbitrary diffusivities, and the interface data
    is psi1 = a1 + a2, psi2 = s (a1 - a2) (modally).
    """

    operator: SectionOperator
    geometry: CylinderGeometry
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        a1 = np.atleast_1d(np.asarray(self.a1, dtype=float))
        a2 = np.atleast_1d(np.asarray(self.a2, dtype=float))
        if a1.shape != (self.operator.m,) or a2.shape != (self.operator.m,):
            raise DimensionMismatchError("coefficient arrays must have one entry per mode")
        if np.max(np.abs(a1)) == 0.0 and np.max(np.abs(a2)) == 0.0:
            raise ValueError("coefficients must not all vanish")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    @property
    def s(self) -> np.ndarray:
        return np.sqrt(-self.operator.eigenvalues)

    def modal_field(self, xs, order: int = 0) -> np.ndarray:
        """Per-mode values; only modes with a nonzero coefficient are evaluated."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        xi = xs - self.geometry.gamma
        out = np.zeros((self.operator.m, xs.size))
        active = (self.a1 != 0.0) | (self.a2 != 0.0)
        s = self.s[active][:, None]
        sign = (-1.0) ** order
        out[active] = s**order * (self.a1[active][:, None] * np.exp(s * xi)
                                  + sign * self.a2[active][:, None] * np.exp(-s * xi))
        return out

    def field(self, side: str, xs, order: int = 0) -> np.ndarray:
        check_side(side)
        return self.operator.from_modal(self.modal_field(xs, order))

    def psi(self):
        """Exact interface data (psi1, psi2) in the physical basis."""
        op = self.operator
        return op.from_modal(self.a1 + self.a2), op.from_modal(self.s * (self.a1 - self.a2))

    def forcing(self) -> ModalForcing:
        return ModalForcing.zero(self.operator.m, self.geometry)


def manufactured_homogeneous(operator: SectionOperator, geometry: CylinderGeometry,
                             mode, a1, a2) -> ExactCase:
    """Exact homogeneous case on one mode or a collection of modes.

    ``mode`` may be an index with scalar coefficients, or a sequence of
    distinct indices (``check_modes``) with matching coefficient sequences.
    """
    modes = check_modes("modes", [mode] if np.ndim(mode) == 0 else mode, operator.m)
    c1 = np.atleast_1d(np.asarray(a1, dtype=float))
    c2 = np.atleast_1d(np.asarray(a2, dtype=float))
    if not (modes.size == c1.size == c2.size):
        raise DimensionMismatchError("mode and coefficient lists must match in length")
    full1 = np.zeros(operator.m)
    full2 = np.zeros(operator.m)
    full1[modes] = c1
    full2[modes] = c2
    return ExactCase(operator, geometry, full1, full2)


def _poly_particular(w: np.ndarray, mu: float) -> np.ndarray:
    """Polynomial p with p'' + mu p = w, by downward recurrence (mu != 0)."""
    p = np.zeros_like(w)
    for i in range(w.size - 1, -1, -1):
        upper = (i + 2) * (i + 1) * p[i + 2] if i + 2 < w.size else 0.0
        p[i] = (w[i] - upper) / mu
    return p


@dataclass(frozen=True)
class ForcedCase(_ClosedFormCase):
    """Manufactured forced solution exercising diffusivity asymmetry.

    Built from a polynomial profile r by prescribing the flux fields
    w_- = k+ r and w_+ = k- r (so k- w_- = k+ w_+ identically, satisfying
    both flux conditions), integrating u'' + mu u = w outward from
    prescribed interface values, and reading the forcing off the
    equation. The two one-sided fields genuinely differ when k+ != k-.
    """

    operator: SectionOperator
    geometry: CylinderGeometry
    k_minus: float
    k_plus: float
    mode: int
    profile: np.ndarray
    psi1_value: float
    psi2_value: float
    u_polys: dict
    exp_coeffs: dict
    f_polys: dict

    def _mode_values(self, side: str, xs, order: int) -> np.ndarray:
        xi = np.atleast_1d(np.asarray(xs, dtype=float)) - self.geometry.gamma
        s = np.sqrt(-self.operator.eigenvalues[self.mode])
        a_c, b_c = self.exp_coeffs[side]
        poly = npoly.polyder(self.u_polys[side], order) if order else self.u_polys[side]
        vals = npoly.polyval(xi, poly)
        vals = vals + s**order * (a_c * np.exp(s * xi)
                                  + (-1.0) ** order * b_c * np.exp(-s * xi))
        return vals

    def field(self, side: str, xs, order: int = 0) -> np.ndarray:
        check_side(side)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros((self.operator.m, xs.size))
        out[self.mode] = self._mode_values(side, xs, order)
        return self.operator.from_modal(out)

    def psi(self):
        op = self.operator
        e = np.zeros(op.m)
        e[self.mode] = 1.0
        return op.from_modal(self.psi1_value * e), op.from_modal(self.psi2_value * e)

    def forcing(self) -> ModalForcing:
        gamma = self.geometry.gamma

        def make(side):
            fpoly = self.f_polys[side]

            def func(xs: np.ndarray) -> np.ndarray:
                return npoly.polyval(np.asarray(xs) - gamma, fpoly)[None, :]
            return func

        return ModalForcing.from_functions(self.geometry, self.operator.m, make(SIDE_MINUS),
                                           make(SIDE_PLUS), modes=(self.mode,))


def manufactured_forced(
    operator: SectionOperator,
    geometry: CylinderGeometry,
    k_minus: float,
    k_plus: float,
    mode: int,
    profile: Sequence[float],
    psi1: float = 0.0,
    psi2: float = 0.0,
) -> ForcedCase:
    """Build the polynomial-profile forced case on one mode.

    ``profile`` holds ascending coefficients of r in powers of
    (x - gamma); degree at most 6. ``mode`` goes through ``check_modes``.
    """
    check_modes("mode", (mode,), operator.m)
    r = np.atleast_1d(np.asarray(profile, dtype=float))
    if r.ndim != 1 or r.size == 0 or r.size > 7 or not np.all(np.isfinite(r)):
        raise ValueError(f"profile must list 1 to 7 finite coefficients, got {r.tolist()}")
    mu = float(operator.eigenvalues[mode])
    s = np.sqrt(-mu)
    u_polys, exp_coeffs, f_polys = {}, {}, {}
    for side, k_target in ((SIDE_MINUS, k_plus), (SIDE_PLUS, k_minus)):
        w = k_target * r
        p = _poly_particular(w, mu)
        c1 = psi1 - p[0]
        c2 = psi2 - (p[1] if p.size > 1 else 0.0)
        a_c = 0.5 * (c1 + c2 / s)
        b_c = 0.5 * (c1 - c2 / s)
        u_polys[side] = p
        exp_coeffs[side] = (a_c, b_c)
        f_polys[side] = npoly.polyadd(npoly.polyder(w, 2), mu * w)
    return ForcedCase(operator, geometry, k_minus, k_plus, mode, r,
                      psi1, psi2, u_polys, exp_coeffs, f_polys)


def _interface_stencil(h: float) -> np.ndarray:
    """Second-order one-sided derivative weights toward the interior."""
    return np.array([3.0, -4.0, 1.0]) / (2.0 * h)


# (lower, upper) bandwidths of the coupled system in node-interleaved order;
# the interface derivative rows reach five columns to each side.
_BANDS = (5, 5)


def _coupled_bands(geometry: CylinderGeometry, k_minus: float, k_plus: float, n: int):
    """Banded storage of the coupled mixed discretization, shared by all modes.

    Unknowns are interleaved per node along x: column 2i holds u_-(x_i)
    and 2i+1 holds w_-(x_i), column 2n+2i holds u_+(x_i) and 2n+2i+1
    holds w_+(x_i), for i = 0..n-1. An interior node i of a side owns the
    rows of its columns: u'' + mu u = w in the u row and w'' + mu w = f
    in the w row. The rows of the end nodes hold the conditions that
    touch them: row 0 fixes u(a) and row 1 the one-sided u'(a); rows
    2n-2..2n+1 impose continuity of u, continuity of u', proportionality
    of w' and proportionality of w at the interface; row 4n-2 fixes
    u'(b) and row 4n-1 u(b). Entry A[i, j] sits at ``ab[U + i - j, j]``
    with (L, U) = ``_BANDS``. Only the interior diagonal depends on the
    mode: it holds -2/h^2 here, and a mode adds its mu at the columns
    ``interior``.

    Returns (ab, interior). Raises InvalidGeometryError when 1/h^2 of
    either side is not a finite positive number.
    """
    lower, upper = _BANDS
    size = 4 * n
    hm = geometry.c / (n - 1)
    hp = geometry.d / (n - 1)
    try:
        finite = all(0.0 < 1.0 / h**2 < np.inf for h in (hm, hp))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise InvalidGeometryError(
            f"axial steps h = {hm:.3e}, {hp:.3e} leave 1/h^2 outside the float range"
        )
    dm = _interface_stencil(hm)
    dp = _interface_stencil(hp)
    ab = np.zeros((lower + upper + 1, size))

    def put(row, col, val):
        row, col = np.broadcast_arrays(row, col)
        ab[upper + row - col, col] = val

    i = np.arange(1, n - 1)
    for base, h in ((0, hm), (2 * n, hp)):
        u, w = base + 2 * i, base + 2 * i + 1
        for row in (u, w):
            put(row, row - 2, 1.0 / h**2)
            put(row, row, -2.0 / h**2)
            put(row, row + 2, 1.0 / h**2)
        put(u, w, -1.0)
    last_u, last_w = 2 * n - 2, 2 * n - 1  # minus side at the interface
    first_u, first_w = 2 * n, 2 * n + 1    # plus side at the interface
    back, ahead = -2 * np.arange(3), 2 * np.arange(3)
    # Outer boundary: value and one-sided derivative of u at a and b.
    put(0, 0, 1.0)
    put(1, ahead, -dm)
    put(size - 2, size - 2 + back, dp)
    put(size - 1, size - 2, 1.0)
    # Interface: continuity of u and u', proportionality of w' and w.
    put(last_u, [last_u, first_u], [1.0, -1.0])
    put(last_w, last_u + back, dm)
    put(last_w, first_u + ahead, dp)
    put(first_u, last_w + back, k_minus * dm)
    put(first_u, first_w + ahead, k_plus * dp)
    put(first_w, [last_w, first_w], [k_minus, -k_plus])
    interior = np.concatenate([2 + np.arange(2 * n - 4), 2 * n + 2 + np.arange(2 * n - 4)])
    return ab, interior


def _band_matvec(ab: np.ndarray, x: np.ndarray, main: Optional[np.ndarray] = None) -> np.ndarray:
    """A @ x along the last axis, for A in the band storage of ``_coupled_bands``.

    ``main``, shaped like ``x``, replaces the main diagonal of ``ab``: a
    batch of modes whose matrices differ only there gets each mode's
    product, bit for bit, from one call.
    """
    lower, upper = _BANDS
    out = np.zeros(np.shape(x))
    size = x.shape[-1]
    for k in range(-lower, upper + 1):  # k = column - row
        diag = main if k == 0 and main is not None else ab[upper - k]
        if k >= 0:
            out[..., :size - k] += diag[..., k:] * x[..., k:]
        else:
            out[..., -k:] += diag[..., :size + k] * x[..., :size + k]
    return out


def _solve_coupled(ab: np.ndarray, main: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Every mode's solution of its ``_coupled_bands`` system in one pass, shape (m, 4n).

    Mode j's matrix is ``ab`` with ``main[j]`` as its main diagonal, and
    ``rhs[j]`` is its right-hand side; ``main[j]`` differs from ``ab``'s
    own diagonal only on the interior rows, where both kinds of row get
    the mode's mu (``direct_solve`` builds it so). The interior rows go
    first: per side, the w rows (w'' + mu w = f) and then the u rows
    (u'' + mu u - w = 0) are tridiagonal and strictly diagonally dominant
    for mu < 0, so the package's tridiagonal elimination (``_tridiagonal``)
    interchanges no rows, and one sweep each, batched over (mode, side),
    writes every interior value as an affine function of the side's four
    end values (u and w at its two ends). Both kinds of row carry the
    same second difference, so the sweeps share the w rows' factors. The
    8 end and interface rows are then one 8 x 8 system per mode in those
    values (the Schur complement), solved by one batched
    ``np.linalg.solve`` with partial pivoting. The sweeps rely on the
    coupling pattern that ``_coupled_bands`` documents; ``direct_solve``'s
    backward-error gate measures the result against each mode's full
    band matrix.
    """
    lower, upper = _BANDS
    m, size = rhs.shape
    n = size // 4
    # Column c = 2n side + 2 node + kind (u = 0, w = 1) as axes (side, node, kind).
    bands = ab.reshape(lower + upper + 1, 2, n, 2)
    values = rhs.reshape(m, 2, n, 2)

    def along(band, start, kind):  # entries of the n - 2 interior rows as (node, 1, 1, side)
        return bands[band, :, start:start + n - 2, kind].T[:, None, None, :]

    # Sweep arrays are (node, term, mode, side): term 0 is the value with
    # zero end values, terms 1..4 the response to the side's u and w at
    # its first node, then at its last.
    diag = main.reshape(m, 2, n, 2)[:, :, 1:n - 1, 1].transpose(2, 0, 1)[:, None]
    # The w rows' bands in band storage are the band rows at the w columns.
    lu = factor_banded(np.stack(np.broadcast_arrays(along(upper - 2, 1, 1), diag,
                                                    along(upper + 2, 1, 1))))

    def sweep(kind, b):
        # The entries of the rows' end columns move the end values into
        # terms 1..4 of the right-hand side.
        b[:, 0] += values[:, :, 1:n - 1, kind].transpose(2, 0, 1)
        b[0, 1 + kind] -= along(upper + 2, 0, kind)[0, 0, 0]
        b[-1, 3 + kind] -= along(upper - 2, 2, kind)[-1, 0, 0]
        return solve_banded(lu, b)

    w = sweep(1, np.zeros((n - 2, 5, m, 2)))
    u = sweep(0, -along(upper - 1, 1, 1) * w)  # the u rows' w term

    # The end rows reach the four nodes nearest each end of a side.
    near = np.r_[0:4, n - 4:n]
    terms = np.zeros((2, m, near.size, 2, 5))  # (side, mode, node, kind, term)
    terms[:, :, 1:-1] = np.stack([u[near[1:-1] - 1], w[near[1:-1] - 1]],
                                 axis=1).transpose(4, 3, 0, 1, 2)
    for node, kind, term in ((0, 0, 1), (0, 1, 2), (-1, 0, 3), (-1, 1, 4)):
        terms[:, :, node, kind, term] = 1.0
    ends = np.array([0, 1, 2 * n - 2, 2 * n - 1, 2 * n, 2 * n + 1, 4 * n - 2, 4 * n - 1])
    schur = np.zeros((m, ends.size, 9))  # (mode, end row, term 0 then the 8 end values)
    for side in range(2):
        cols = (2 * n * side + 2 * near[:, None] + np.arange(2)).ravel()
        offset = upper + ends[:, None] - cols
        in_band = (offset >= 0) & (offset <= lower + upper)
        coupling = np.where(in_band, ab[np.clip(offset, 0, lower + upper), cols], 0.0)
        part = coupling @ terms[side].reshape(m, cols.size, 5)
        schur[..., 0] += part[..., 0]
        schur[..., 1 + 4 * side:5 + 4 * side] = part[..., 1:]
    side_ends = np.linalg.solve(schur[..., 1:], (rhs[:, ends] - schur[..., 0])[..., None])
    side_ends = side_ends.reshape(m, 2, 4)

    sols = np.empty((m, 2, n, 2))
    sols[:, :, [0, -1]] = side_ends.reshape(m, 2, 2, 2)
    for kind, field in enumerate((u, w)):
        inner = field[:, 0]
        for term in range(4):
            inner += field[:, 1 + term] * side_ends[..., term]
        sols[:, :, 1:n - 1, kind] = inner.transpose(1, 2, 0)
    return sols.reshape(m, size)


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
        check_side(side)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
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

    Each mode's system is banded (see ``_coupled_bands``, assembled once
    per call) and differs from the others only by its eigenvalue on the
    interior diagonal; ``_solve_coupled`` solves them together, and the
    largest per-mode backward error, measured against each mode's full
    band matrix, must stay at linear-solve level.
    Strictly independent of the representation route: it never touches
    semigroups, solvability operators, or interface-source algebra, only
    the spectrum of the section operator. Its inputs form a ``TransmissionProblem``;
    ``n_x`` is at least ``ORACLE_MIN_N_X`` (``check_grid``).
    """
    check_grid(n_x, ORACLE_MIN_N_X)
    m = operator.m
    problem = TransmissionProblem(operator, geometry, k_minus, k_plus,
                                  ModalForcing.zero(m, geometry) if forcing is None else forcing,
                                  BoundaryData.zeros(m) if boundary is None else boundary)
    forcing, boundary = problem.forcing, problem.boundary
    ab, interior = _coupled_bands(geometry, k_minus, k_plus, n_x)
    grid_m = geometry.grid(SIDE_MINUS, n_x)
    grid_p = geometry.grid(SIDE_PLUS, n_x)
    f_m = forcing.sample(SIDE_MINUS, grid_m)
    f_p = forcing.sample(SIDE_PLUS, grid_p)
    bc_hat = np.stack([operator.to_modal(phi) for phi in (
        boundary.phi1_minus, boundary.phi2_minus, boundary.phi1_plus, boundary.phi2_plus)])
    size = 4 * n_x
    # Right-hand sides of all modes: f in the interior w rows, the boundary
    # data in the four outer rows, zero in the interface rows.
    rhs = np.zeros((m, size))
    rhs[:, 3:2 * n_x - 2:2] = f_m[:, 1:-1]
    rhs[:, 2 * n_x + 3:size - 2:2] = f_p[:, 1:-1]
    rhs[:, [0, 1, size - 1, size - 2]] = bc_hat.T
    # Modes differ only on the interior diagonal, where each adds its mu.
    main = np.tile(ab[_BANDS[1]], (m, 1))
    main[:, interior] += operator.eigenvalues[:, None]
    sols = _solve_coupled(ab, main, rhs)
    # Row sums of |A_j| (its infinity norm): the entries off the interior
    # diagonal are summed once per call.
    fixed = np.abs(ab)
    fixed[_BANDS[1], interior] = 0.0
    row_sums = _band_matvec(fixed, np.ones(size))
    off_diag = row_sums[interior]
    row_sums[interior] = 0.0
    norm_a = np.maximum(np.max(row_sums), np.max(off_diag + np.abs(main[:, interior]), axis=1))
    backward = (np.max(np.abs(_band_matvec(ab, sols, main) - rhs), axis=1)
                / (norm_a * np.maximum(np.max(np.abs(sols), axis=1), 1e-300)
                   + np.max(np.abs(rhs), axis=1) + 1e-300))
    worst = float(np.max(backward))  # a NaN propagates and fails the gate
    if not worst <= 1e-12:
        raise AnomalyError(
            f"direct solve backward error {worst:.3e} above linear-solve level "
            "(the discrete system should be uniquely solvable)"
        )
    u_m, w_m = sols[:, 0:2 * n_x:2], sols[:, 1:2 * n_x:2]
    u_p, w_p = sols[:, 2 * n_x::2], sols[:, 2 * n_x + 1::2]
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
    """Distance between two solutions exposing ``field(side, xs)``, of one geometry exactly."""
    geom_a, geom_b = sol_a.geometry, sol_b.geometry
    if geom_a != geom_b:
        raise ValueError(f"incompatible cases: geometries differ ({geom_a} vs {geom_b})")
    if sol_a.operator.m != sol_b.operator.m:
        raise ValueError("incompatible cases: section dimensions differ")
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

    ``case`` is an ExactCase or ForcedCase; ``method`` selects the
    representation-formula solver or the direct finite-difference
    oracle, and ``check_levels`` checks both it and the levels. Errors at
    or below the linear-algebra floor are flagged instead of fitted.
    """
    from .transmission import SolveOptions, solve_transmission

    ns = check_levels(refinements, method)
    km = getattr(case, "k_minus", k_minus)
    kp = getattr(case, "k_plus", k_plus)
    if km is None or kp is None:
        raise ValueError("diffusivities required for a case that does not carry them")
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

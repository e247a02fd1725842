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
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._scipy import CubicSpline, csr_matrix, spsolve
from .errors import AnomalyError, DimensionMismatchError, ResolutionError
from .problem import (
    SIDE_MINUS,
    SIDE_PLUS,
    SIDES,
    BoundaryData,
    CylinderGeometry,
    ModalForcing,
    check_side,
)
from .section_operator import SectionOperator

FLOOR = 1e-9  # error level treated as the linear-algebra floor in rate fits


@dataclass(frozen=True)
class ExactCase:
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

    def boundary_data(self) -> BoundaryData:
        geom = self.geometry
        return BoundaryData(
            self.field(SIDE_MINUS, geom.a, 0)[:, 0],
            self.field(SIDE_MINUS, geom.a, 1)[:, 0],
            self.field(SIDE_PLUS, geom.b, 0)[:, 0],
            self.field(SIDE_PLUS, geom.b, 1)[:, 0],
        )

    def forcing(self) -> ModalForcing:
        return ModalForcing.zero(self.operator.m, self.geometry)


def manufactured_homogeneous(operator: SectionOperator, geometry: CylinderGeometry,
                             mode, a1, a2) -> ExactCase:
    """Exact homogeneous case on one mode or a collection of modes.

    ``mode`` may be an index with scalar coefficients, or a sequence of
    indices with matching coefficient sequences.
    """
    modes = np.atleast_1d(np.asarray(mode, dtype=int))
    c1 = np.atleast_1d(np.asarray(a1, dtype=float))
    c2 = np.atleast_1d(np.asarray(a2, dtype=float))
    if not (modes.size == c1.size == c2.size):
        raise DimensionMismatchError("mode and coefficient lists must match in length")
    if np.any(modes < 0) or np.any(modes >= operator.m):
        raise DimensionMismatchError(
            f"mode indices {modes.tolist()} outside 0..{operator.m - 1}"
        )
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
class ForcedCase:
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
    w_polys: dict
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

    def boundary_data(self) -> BoundaryData:
        geom = self.geometry
        return BoundaryData(
            self.field(SIDE_MINUS, geom.a, 0)[:, 0],
            self.field(SIDE_MINUS, geom.a, 1)[:, 0],
            self.field(SIDE_PLUS, geom.b, 0)[:, 0],
            self.field(SIDE_PLUS, geom.b, 1)[:, 0],
        )

    def forcing(self, n: int = 33) -> ModalForcing:
        gamma = self.geometry.gamma
        mode, m = self.mode, self.operator.m

        def make(side):
            fpoly = self.f_polys[side]

            def func(xs: np.ndarray) -> np.ndarray:
                out = np.zeros((m, np.size(xs)))
                out[mode] = npoly.polyval(np.asarray(xs) - gamma, fpoly)
                return out
            return func

        return ModalForcing.from_functions(
            self.geometry, m, make(SIDE_MINUS), make(SIDE_PLUS), n=n,
            label=f"manufactured-forced(mode={mode})",
        )


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
    (x - gamma); degree at most 6.
    """
    if not 0 <= mode < operator.m:
        raise DimensionMismatchError(f"mode {mode} outside 0..{operator.m - 1}")
    r = np.atleast_1d(np.asarray(profile, dtype=float))
    if r.ndim != 1 or r.size == 0 or r.size > 7 or not np.all(np.isfinite(r)):
        raise ValueError("profile must be polynomial coefficients of degree <= 6")
    mu = float(operator.eigenvalues[mode])
    s = np.sqrt(-mu)
    w_polys, u_polys, exp_coeffs, f_polys = {}, {}, {}, {}
    for side, k_target in ((SIDE_MINUS, k_plus), (SIDE_PLUS, k_minus)):
        w = k_target * r
        p = _poly_particular(w, mu)
        c1 = psi1 - p[0]
        c2 = psi2 - (p[1] if p.size > 1 else 0.0)
        a_c = 0.5 * (c1 + c2 / s)
        b_c = 0.5 * (c1 - c2 / s)
        w_polys[side] = w
        u_polys[side] = p
        exp_coeffs[side] = (a_c, b_c)
        f_polys[side] = npoly.polyadd(npoly.polyder(w, 2), mu * w)
    return ForcedCase(operator, geometry, k_minus, k_plus, mode, r,
                      psi1, psi2, w_polys, u_polys, exp_coeffs, f_polys)


def _interface_stencil(h: float) -> np.ndarray:
    """Second-order one-sided derivative weights toward the interior."""
    return np.array([3.0, -4.0, 1.0]) / (2.0 * h)


def _coupled_pattern(geometry: CylinderGeometry, k_minus: float, k_plus: float, n: int):
    """CSR structure of the coupled mixed discretization, shared by all modes.

    Unknown layout: [u_-, w_-, u_+, w_+], each of length n. Rows
    0..4(n-2)-1 hold the interior equations, minus side first, a
    u'' + mu u = w row then a w'' + mu w = f row per interior point; the
    next four rows fix the value and the one-sided derivative of u at a
    and b; the last four impose the two continuity and the two flux
    conditions at the interface with one-sided stencils. Only the interior
    diagonal depends on the mode: ``data`` holds -2/h^2 there, and a mode
    adds its mu at the positions ``diag``. Column indices are sorted
    within each row.

    Returns (data, indices, indptr, diag).
    """
    hm = geometry.c / (n - 1)
    hp = geometry.d / (n - 1)
    um, wm, up, wp = 0, n, 2 * n, 3 * n
    dm = _interface_stencil(hm)
    dp = _interface_stencil(hp)
    i = np.arange(1, n - 1)
    rows, cols, vals, on_diag = [], [], [], []

    def put(row, col, val, diag=False):
        row, col = np.broadcast_arrays(np.atleast_1d(row), col)
        rows.append(row)
        cols.append(col)
        vals.append(np.broadcast_to(np.asarray(val, dtype=float), row.shape))
        on_diag.append(np.full(row.shape, diag))

    for first, base_u, base_w, h in ((0, um, wm, hm), (2 * (n - 2), up, wp, hp)):
        row_u = first + 2 * (i - 1)
        for row, base in ((row_u, base_u), (row_u + 1, base_w)):
            put(row, base + i - 1, 1.0 / h**2)
            put(row, base + i, -2.0 / h**2, diag=True)
            put(row, base + i + 1, 1.0 / h**2)
        put(row_u, base_w + i, -1.0)
    b = 4 * (n - 2)
    # Outer boundary: value and one-sided derivative of u at a and b.
    put(b, um, 1.0)
    put(b + 1, um + np.arange(3), -dm)
    put(b + 2, up + n - 1, 1.0)
    put(b + 3, up + n - 1 - np.arange(3), dp)
    # Interface: continuity of u and u', proportionality of w and w'.
    put(b + 4, [um + n - 1, up], [1.0, -1.0])
    put(b + 5, um + n - 1 - np.arange(3), dm)
    put(b + 5, up + np.arange(3), dp)
    put(b + 6, [wm + n - 1, wp], [k_minus, -k_plus])
    put(b + 7, wm + n - 1 - np.arange(3), k_minus * dm)
    put(b + 7, wp + np.arange(3), k_plus * dp)

    rows, cols = np.concatenate(rows), np.concatenate(cols)
    per_row = np.bincount(rows)
    if per_row.size != 4 * n or not np.all(per_row):
        raise AnomalyError(f"oracle assembly filled {np.count_nonzero(per_row)} rows "
                           f"for {4 * n} unknowns")
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(per_row)])
    diag = np.flatnonzero(np.concatenate(on_diag)[order])
    return np.concatenate(vals)[order], cols[order], indptr, diag


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

    def modal_field(self, side: str, xs, order: int = 0) -> np.ndarray:
        check_side(side)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        grid = self.grid(side)
        u = self.u_minus if side == SIDE_MINUS else self.u_plus
        w = self.w_minus if side == SIDE_MINUS else self.w_plus
        if order == 0:
            return CubicSpline(grid, u, axis=1)(xs)
        if order == 1:
            return CubicSpline(grid, u, axis=1)(xs, 1)
        if order == 2:
            mu = self.operator.eigenvalues[:, None]
            return CubicSpline(grid, w - mu * u, axis=1)(xs)
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
    """Coupled second-order finite-difference solve, one mode at a time.

    The sparse structure is built once per call; each mode fills in its
    eigenvalue and gets its own sparse LU solve and backward-error check.
    Strictly independent of the representation route: it never touches
    semigroups, solvability operators, or interface-source algebra, only
    the spectrum of the section operator.
    """
    if n_x < 33:
        raise ResolutionError(f"direct solve needs n_x >= 33, got {n_x}")
    m = operator.m
    forcing = forcing if forcing is not None else ModalForcing.zero(m, geometry)
    boundary = boundary if boundary is not None else BoundaryData.zeros(m)
    if forcing.m != m or boundary.m != m:
        raise DimensionMismatchError("forcing/boundary dimension mismatch")
    grid_m = geometry.grid(SIDE_MINUS, n_x)
    grid_p = geometry.grid(SIDE_PLUS, n_x)
    f_m = forcing.sample(SIDE_MINUS, grid_m)
    f_p = forcing.sample(SIDE_PLUS, grid_p)
    bc_hat = np.stack([operator.to_modal(phi) for phi in (
        boundary.phi1_minus, boundary.phi2_minus, boundary.phi1_plus, boundary.phi2_plus)])
    size = 4 * n_x
    data, indices, indptr, diag = _coupled_pattern(geometry, k_minus, k_plus, n_x)
    # Right-hand sides of all modes: f on the interior w rows, the boundary
    # data on the four outer rows, zero on the interface rows.
    n_int = 2 * (n_x - 2)
    rhs = np.zeros((m, size))
    rhs[:, 1:n_int:2] = f_m[:, 1:-1]
    rhs[:, n_int + 1:2 * n_int:2] = f_p[:, 1:-1]
    rhs[:, 2 * n_int:2 * n_int + 4] = bc_hat.T
    u_m = np.zeros((m, n_x))
    u_p = np.zeros((m, n_x))
    w_m = np.zeros((m, n_x))
    w_p = np.zeros((m, n_x))
    worst = 0.0
    for j in range(m):
        vals = data.copy()
        vals[diag] += operator.eigenvalues[j]
        mat = csr_matrix((vals, indices, indptr), shape=(size, size))
        sol = spsolve(mat, rhs[j])
        backward = (np.max(np.abs(mat @ sol - rhs[j]))
                    / (np.max(np.abs(mat).sum(axis=1)) * max(np.max(np.abs(sol)), 1e-300)
                       + np.max(np.abs(rhs[j])) + 1e-300))
        worst = max(worst, float(backward))
        u_m[j], w_m[j] = sol[:n_x], sol[n_x:2 * n_x]
        u_p[j], w_p[j] = sol[2 * n_x:3 * n_x], sol[3 * n_x:]
    if worst > 1e-12:
        raise AnomalyError(
            f"direct solve backward error {worst:.3e} above linear-solve level "
            "(the discrete system should be uniquely solvable)"
        )
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
    """Distance between two solutions exposing ``field(side, xs)``."""
    geom_a, geom_b = sol_a.geometry, sol_b.geometry
    if not np.allclose([geom_a.a, geom_a.gamma, geom_a.b],
                       [geom_b.a, geom_b.gamma, geom_b.b]):
        raise ValueError("incompatible cases: geometries differ")
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
    oracle. At least three refinement levels are required. Errors at or
    below the linear-algebra floor are flagged instead of fitted.
    """
    from .transmission import SolveOptions, solve_transmission

    if method not in ("representation", "direct"):
        raise ValueError(f"method must be 'representation' or 'direct', got {method!r}")
    ns = [int(n) for n in refinements]
    if len(ns) < 3:
        raise ValueError("need at least 3 refinement levels")
    km = case.k_minus if hasattr(case, "k_minus") else k_minus
    kp = case.k_plus if hasattr(case, "k_plus") else k_plus
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
            err = 0.0
            for side in SIDES:
                xs = geom.grid(side, probe_points)
                err = max(err, float(np.max(np.abs(sol.field(side, xs, 0)
                                                   - case.field(side, xs, 0)))))
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

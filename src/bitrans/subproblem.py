"""One-sided solvers: particular solutions, source coefficients, evaluation.

Each interval problem is solved by the exact representation

    u(x) = (E1 - E2) a1 + (s1 E1 - s2 E2) a2
         + (E1 + E2) a3 + (s1 E1 + s2 E2) a4 + F(x),

with E1 = e^{s1 M}, E2 = e^{s2 M}, s1 = x - left end, s2 = right end - x.
The coefficients a1..a4 are affine in the interface values (psi1, psi2)
and in the boundary-source quadruple phi~1..phi~4; F is the particular
solution with homogeneous value and second-derivative conditions at both
interval ends. Everything here is linear in the data. All operators are
functions of M, so the coefficient algebra runs per mode on eigenbasis
coordinates (``SideSymbols``) and fields are evaluated there too
(``modal_field``); ``evaluate`` maps them back where a physical value is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._scipy import solve_banded
from ._spline import CubicSpline
from .errors import DimensionMismatchError, ResolutionError
from .problem import SIDE_MINUS, SIDE_PLUS, CylinderGeometry, ModalForcing, check_side
from .section_operator import SectionOperator
from .symbols import f_components, u_delta, v_delta

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
    v_j = v_delta(delta, -mu_j); ``f`` holds the interface-block symbols
    f_{delta,1..3}(-mu_j), and ``g`` the generator eigenvalues themselves.
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
    """Evaluate the one-sided symbols on the spectrum, O(m)."""
    z = -operator.eigenvalues
    g = operator.generator_eigenvalues
    f1, f2, f3, _ = f_components(delta, z)  # rejects modes where u or v vanishes
    return SideSymbols(g=g, delta=delta, e=np.exp(delta * g),
                       u=u_delta(delta, z), v=v_delta(delta, z), f=(f1, f2, f3))


def _one_sided_derivative(field: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """4th-order one-sided first derivatives at both ends of (m, n) samples."""
    left = field[:, :5] @ _D1_LEFT / h
    right = -(field[:, -1:-6:-1] @ _D1_LEFT) / h
    return left, right


@dataclass(frozen=True)
class ParticularSolution:
    """Particular solution F of one interval with F = F'' = 0 at both ends.

    Stores the modal fields F and w = F'' + mu F on the interval grid,
    the endpoint first-derivative traces, and the third-derivative traces
    F''' = w' - mu F' (exact identity of the factorized problem). The
    ``error_estimate`` is the relative size of the Richardson correction,
    an observed bound for the remaining discretization error. ``active``
    lists the forced modes; every other row is exactly zero, and the
    interpolating splines cover the active rows only.
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
        rows = self.active
        if rows.size:
            object.__setattr__(self, "_spline_f",
                               CubicSpline(self.grid, self.f_modal[rows]))
            object.__setattr__(self, "_spline_w",
                               CubicSpline(self.grid, self.w_modal[rows]))

    @property
    def m(self) -> int:
        return self.f_modal.shape[0]

    @property
    def fprime_interface(self) -> np.ndarray:
        """F' at the interface end (right of minus, left of plus)."""
        return self.fprime_right if self.side == SIDE_MINUS else self.fprime_left

    @property
    def f3_interface(self) -> np.ndarray:
        return self.f3_right if self.side == SIDE_MINUS else self.f3_left

    def term(self, xs: np.ndarray, order: int, mu: np.ndarray) -> np.ndarray:
        """Modal F-term of the given derivative order at the points ``xs``.

        Interior values take one spline derivative of order ``order % 2``
        of the modal samples, as F^(order) for orders 0, 1 and as
        w^(order-2) - mu F^(order-2) for orders 2, 3. At the ends, odd
        orders use the stored traces exactly and even orders the built-in
        homogeneous conditions F = F'' = 0. Rows outside ``active`` are 0.
        """
        if order not in (0, 1, 2, 3):
            raise ValueError(f"derivative order must be 0..3, got {order}")
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros((self.m, xs.size))
        rows = self.active
        if not rows.size:
            return out
        lo, hi = self.grid[0], self.grid[-1]
        tol = _ENDPOINT_TOL * (hi - lo)
        at_lo = np.abs(xs - lo) <= tol
        at_hi = np.abs(xs - hi) <= tol
        inner = ~(at_lo | at_hi)
        nu = order % 2
        part = np.zeros((rows.size, xs.size))
        part[:, inner] = self._spline_f(xs[inner], nu)
        if order >= 2:
            part[:, inner] = self._spline_w(xs[inner], nu) - mu[rows, None] * part[:, inner]
        if nu:
            left, right = ((self.fprime_left, self.fprime_right) if order == 1
                           else (self.f3_left, self.f3_right))
            part[:, at_lo] = left[rows, None]
            part[:, at_hi] = right[rows, None]
        out[rows] = part
        return out

    @classmethod
    def zero(cls, side: str, geometry: CylinderGeometry, m: int, n_x: int = 33):
        # Fresh np.zeros fields, not copies: their pages are never written.
        grid = geometry.grid(side, n_x)
        zm = np.zeros(m)
        return cls(side, geometry, grid, np.zeros((m, n_x)), np.zeros((m, n_x)), zm, zm.copy(),
                   zm.copy(), zm.copy(), 0.0, np.zeros(0, dtype=int))


def _solve_factorized(mu: np.ndarray, grid: np.ndarray, fhat: np.ndarray):
    """Dirichlet solve of u'''' + 2 mu_j u'' + mu_j^2 u = fhat_j for every row j.

    Per row the operator factors as (d^2/dx^2 + mu_j)^2: w solves
    w'' + mu_j w = fhat_j and F solves F'' + mu_j F = w, both with zero
    ends. Each stage is one block-diagonal tridiagonal system: the row
    bands (-2/h^2 + mu_j) diag, 1/h^2 off are stacked with zero coupling
    across blocks, so every block eliminates exactly as it would alone,
    and mu_j < 0 keeps each block strictly diagonally dominant. Returns
    (F, w) on the full grid with the zero ends; no rows means no solve.
    """
    h = grid[1] - grid[0]
    k, n = fhat.shape
    n_int = n - 2
    w = np.zeros((k, n))
    f = np.zeros((k, n))
    if k:
        ab = np.empty((3, k * n_int))
        ab[0] = ab[2] = 1.0 / h**2
        ab[0, ::n_int] = 0.0
        ab[2, n_int - 1::n_int] = 0.0
        ab[1] = np.repeat(-2.0 / h**2 + mu, n_int)
        w[:, 1:-1] = solve_banded((1, 1), ab, fhat[:, 1:-1].ravel()).reshape(k, n_int)
        f[:, 1:-1] = solve_banded((1, 1), ab, w[:, 1:-1].ravel()).reshape(k, n_int)
    return f, w


def solve_particular(
    operator_mu: np.ndarray,
    geometry: CylinderGeometry,
    side: str,
    forcing: ModalForcing,
    n_x: int = 129,
) -> ParticularSolution:
    """Solve the homogeneous-ends particular problem on one interval.

    The problem decouples by mode, and a mode whose forcing samples are
    zero on both grids has F = 0 exactly; only the other (active) modes
    are solved. Per mode mu the fourth-order equation factors as
    (d^2/dx^2 + mu)^2, giving two successive Dirichlet solves, each one
    block-banded solve over the active modes; both are coercive since
    mu < 0. Fields and traces are Richardson-extrapolated from the h and
    h/2 central-difference solutions; first-derivative traces use
    one-sided 4th-order stencils on the extrapolated fields and the
    third-derivative traces use F''' = w' - mu F'. A side without active
    modes makes no solve and builds no spline, and a side whose forcing
    is stored as zero samples (no resampler) is not even sampled: it
    returns ``ParticularSolution.zero``.

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
    grid_c = geometry.grid(side, n_x)
    grid_f = geometry.grid(side, 2 * n_x - 1)
    fhat_c = forcing.sample(side, grid_c)
    fhat_f = forcing.sample(side, grid_f)
    active = np.flatnonzero(np.any(fhat_c, axis=1) | np.any(fhat_f, axis=1))
    mu_a = mu[active]
    f_c, w_c = _solve_factorized(mu_a, grid_c, fhat_c[active])
    f_f, w_f = _solve_factorized(mu_a, grid_f, fhat_f[active])
    corr_f = (f_f[:, ::2] - f_c) / 3.0
    f_x = np.zeros((mu.size, n_x))
    w_x = np.zeros((mu.size, n_x))
    f_x[active] = f_f[:, ::2] + corr_f  # = (4 f_fine - f_coarse) / 3 on coarse nodes
    w_x[active] = w_f[:, ::2] + (w_f[:, ::2] - w_c) / 3.0
    # The trace stencils run on all m rows, so a mode's traces round the same
    # whichever other modes are active.
    h = grid_c[1] - grid_c[0]
    fp_l, fp_r = _one_sided_derivative(f_x, h)
    wp_l, wp_r = _one_sided_derivative(w_x, h)
    scale = 1.0 + np.max(np.abs(f_x))
    estimate = float(np.max(np.abs(corr_f)) / scale) if np.max(np.abs(fhat_c)) > 0 else 0.0
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


def phi_tilde_minus(ops: SideSymbols, phi1, phi2, fprime_a, fprime_gamma):
    """Boundary-source quadruple of the minus interval, in eigenbasis coordinates."""
    phi1, phi2, fpa, fpg = _check_vectors(ops.m, phi1, phi2, fprime_a, fprime_gamma)
    c, e, u, v = ops.delta, ops.e, ops.u, ops.v
    mphi1 = ops.g * phi1
    pt1 = 0.5 * (phi1 + e * (phi1 + c * (mphi1 + phi2 - fpa - fpg))) / u
    pt2 = -0.5 * ((mphi1 - phi2 + fpa + fpg) + e * (mphi1 + phi2 - fpa - fpg)) / u
    pt3 = 0.5 * (phi1 - e * (phi1 + c * (mphi1 + phi2 - fpa + fpg))) / v
    pt4 = -0.5 * ((mphi1 - phi2 + fpa - fpg) - e * (mphi1 + phi2 - fpa + fpg)) / v
    return pt1, pt2, pt3, pt4


def phi_tilde_plus(ops: SideSymbols, phi1, phi2, fprime_gamma, fprime_b):
    """Boundary-source quadruple of the plus interval (mirrored signs)."""
    phi1, phi2, fpg, fpb = _check_vectors(ops.m, phi1, phi2, fprime_gamma, fprime_b)
    d, e, u, v = ops.delta, ops.e, ops.u, ops.v
    mphi1 = ops.g * phi1
    pt1 = -0.5 * (phi1 + e * (phi1 + d * (mphi1 - phi2 + fpg + fpb))) / u
    pt2 = 0.5 * ((mphi1 + phi2 - fpg - fpb) + e * (mphi1 - phi2 + fpg + fpb)) / u
    pt3 = 0.5 * (phi1 - e * (phi1 + d * (mphi1 - phi2 - fpg + fpb))) / v
    pt4 = -0.5 * ((mphi1 + phi2 + fpg - fpb) - e * (mphi1 - phi2 - fpg + fpb)) / v
    return pt1, pt2, pt3, pt4


def alphas_minus(ops: SideSymbols, psi1, psi2, phi_tilde):
    """Representation coefficients of the minus interval, in eigenbasis coordinates."""
    psi1, psi2 = _check_vectors(ops.m, psi1, psi2)
    pt1, pt2, pt3, pt4 = phi_tilde
    c, e, u, v = ops.delta, ops.e, ops.u, ops.v
    mpsi1 = ops.g * psi1
    e_psi1 = e * psi1
    e_psi2 = e * psi2
    e_mpsi1 = e * mpsi1
    a1 = -0.5 * (psi1 + e_psi1 + c * e_mpsi1 - c * e_psi2) / u + pt1
    a2 = 0.5 * (mpsi1 + e_mpsi1 + psi2 - e_psi2) / u + pt2
    a3 = 0.5 * (psi1 - e_psi1 - c * e_mpsi1 + c * e_psi2) / v + pt3
    a4 = -0.5 * (mpsi1 - e_mpsi1 + psi2 + e_psi2) / v + pt4
    return a1, a2, a3, a4


def alphas_plus(ops: SideSymbols, psi1, psi2, phi_tilde):
    """Representation coefficients of the plus interval, in eigenbasis coordinates."""
    psi1, psi2 = _check_vectors(ops.m, psi1, psi2)
    pt1, pt2, pt3, pt4 = phi_tilde
    d, e, u, v = ops.delta, ops.e, ops.u, ops.v
    mpsi1 = ops.g * psi1
    e_psi1 = e * psi1
    e_psi2 = e * psi2
    e_mpsi1 = e * mpsi1
    a1 = 0.5 * (psi1 + e_psi1 + d * e_mpsi1 + d * e_psi2) / u + pt1
    a2 = -0.5 * (mpsi1 + e_mpsi1 - psi2 + e_psi2) / u + pt2
    a3 = 0.5 * (psi1 - e_psi1 - d * e_mpsi1 - d * e_psi2) / v + pt3
    a4 = -0.5 * (mpsi1 - e_mpsi1 - psi2 - e_psi2) / v + pt4
    return a1, a2, a3, a4


@dataclass(frozen=True)
class SubproblemSolution:
    """Assembled one-sided solution: coefficients plus particular part.

    ``alphas`` are eigenbasis coordinates; ``modal_field`` evaluates in the
    eigenbasis (the semigroup factors are diagonal there), exactly in x for
    the homogeneous part, and ``evaluate`` maps the result back once.
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

    def modal_field(self, x, order: int = 0) -> np.ndarray:
        """Eigenbasis values of the field or a derivative at x, shape (m, k).

        With E1 = e^{s1 g}, E2 = e^{s2 g} per mode and d/dx s1 = -d/dx s2 = 1,
        d^k E1 = g^k E1, d^k (s1 E1) = (k g^{k-1} + s1 g^k) E1, and the
        E2 terms carry an extra factor (-1)^k.
        """
        if order not in (0, 1, 2, 3):
            raise ValueError(f"derivative order must be 0..3, got {order}")
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.geometry.interval(self.side)
        tol = 1e-10 * (hi - lo)
        if np.any(xs < lo - tol) or np.any(xs > hi + tol):
            raise ValueError(f"evaluation points outside [{lo}, {hi}] on side {self.side!r}")
        xs = np.clip(xs, lo, hi)
        gm = self.operator.generator_eigenvalues[:, None]
        s1 = (xs - lo)[None, :]
        s2 = (hi - xs)[None, :]
        gk = gm**order
        dgk = order * gm ** max(order - 1, 0)
        sign = (-1.0) ** order
        e1 = np.exp(s1 * gm)
        e2 = np.exp(s2 * gm)
        de1, de2 = gk * e1, sign * gk * e2  # d^k E1, d^k E2
        dse1, dse2 = (dgk + s1 * gk) * e1, sign * (dgk + s2 * gk) * e2  # d^k (s1 E1), d^k (s2 E2)
        a1, a2, a3, a4 = (a[:, None] for a in self.alphas)
        out = ((de1 - de2) * a1 + (dse1 - dse2) * a2
               + (de1 + de2) * a3 + (dse1 + dse2) * a4)
        if self.particular is not None:
            out = out + self.particular.term(xs, order, self.operator.eigenvalues)
        return out

    def evaluate(self, x, order: int = 0) -> np.ndarray:
        """Physical-basis field or derivative values at x (scalar -> (m,), array -> (m, k))."""
        out = self.operator.from_modal(self.modal_field(x, order))
        return out[:, 0] if np.ndim(x) == 0 else out

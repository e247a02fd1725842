"""One-sided solvers: particular solutions, source coefficients, evaluation.

Each interval problem is solved by the exact representation

    u(x) = (E1 - E2) a1 + (s1 E1 - s2 E2) a2
         + (E1 + E2) a3 + (s1 E1 + s2 E2) a4 + F(x),

with E1 = e^{s1 M}, E2 = e^{s2 M}, s1 = x - left end, s2 = right end - x.
The coefficients a1..a4 are sums of end contributions of one end map
(``_end_coefficients``; the other end is its reflection): the outer data
and the particular slopes give the boundary-source quadruple phi~, and
the interface values (psi1, psi2) add their end at gamma. Every closed
form here is per-mode arithmetic, so it takes data stacked along a
leading axis and evaluates them in one pass, each row with the bits of
its own evaluation: phi~ reads both ends of its interval in one call,
and on both intervals' symbols stacked (one row each) the interface
sources and the residual report read both sides at once. F is the
particular solution with homogeneous value and second-derivative
conditions at both interval ends, solved per mode on the forcing's
declared modes only (``ModalForcing.modes``); every other mode's F is
zero, as is every mode's on a side without a resampler. Each forced row
takes one of two routes (``solve_particular``). Where its own data make
it safe, F = P + H: P the polynomial particular solution of the row's
chopped Chebyshev forcing, a series with no boundary layer, and H the
four end-localized exponentials e^{g s1}, s1 e^{g s1}, e^{g s2},
s2 e^{g s2} that the homogeneous part holds too, in closed form. Every
other row solves its two Dirichlet stages as a chopped Chebyshev series,
all such rows in one batched tridiagonal solve per stage and
refinement round. Everything here is linear in the data. All operators
are functions of M, so the coefficient algebra runs per mode on
eigenbasis coordinates (``SideSymbols``) and fields are evaluated there
too, orders 0..3 in one table (``modal_fields``); ``evaluate`` maps them
back where a physical value is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from ._tridiagonal import factor_banded, solve_banded
from .errors import DimensionMismatchError
from .problem import (
    ENDPOINT_TOL,
    SIDE_MINUS,
    CylinderGeometry,
    ModalForcing,
    check_grid,
    check_side,
)
from .section_operator import SectionOperator
from .symbols import interval_symbols

PARTICULAR_MIN_N_X = 17
# A Chebyshev series chops at the first length where its tail is at most
# CHOP_TOL of its largest coefficient: the forcing's alone on the layer-free
# route, the forcing's, w's and F's on the stages.
CHOP_TOL = 1e-14
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


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
    arrays, applied to eigenbasis coordinates. The condition numbers and
    ``ends`` are formed on first read and kept, since the arrays do not
    change.
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

    @cached_property
    def cond_u(self) -> float:
        """Exact 2-norm condition number of the symmetric positive U."""
        return float(np.max(self.u) / np.min(self.u))

    @cached_property
    def cond_v(self) -> float:
        return float(np.max(self.v) / np.min(self.v))

    @cached_property
    def ends(self) -> "SideSymbols":
        """These symbols twice, one row per interval end (``stack_symbols``), formed on first read."""
        return stack_symbols(self, self)


def side_symbols(operator: SectionOperator, delta: float) -> SideSymbols:
    """Evaluate the one-sided symbols on the spectrum in one pass, O(m)."""
    e, u, v, *f = interval_symbols(delta, -operator.eigenvalues)  # raises where u or v vanishes
    return SideSymbols(g=operator.generator_eigenvalues, delta=delta, e=e, u=u, v=v, f=tuple(f))


@dataclass(frozen=True)
class ParticularSolution:
    """Particular solution F of one interval with F = F'' = 0 at both ends.

    ``active`` lists the forced modes, one row per entry in each table.
    F = S + H per row: ``f_modal`` and ``w_modal`` hold the series part S,
    the Chebyshev-T coefficients of S and w = S'' + mu S on the interval
    (mapped onto [-1, 1]), as long as the row needed and zero past that;
    ``layers`` holds the weights (A, B, C, D) of the end-layer part
    H = E1 (A + s1 B) + E2 (C + s2 D), E1 = e^{g s1}, E2 = e^{g s2}
    (``SubproblemSolution.modal_fields``' form), shape (4, len(active)).
    On a layer-free row S is the polynomial P and H makes F = F'' = 0 at
    the ends; on a stage row S is F itself and H = 0. Either way S is
    nonzero exactly on the forced rows (``perfbench/spans.py`` counts a
    solve as useful by it). Every other mode's F is exactly zero. The
    endpoint traces F' and F''' are vectors over all m modes: S's
    coefficient sums plus H's closed form, with S''' = w' - mu S' (exact
    identity of the factorized problem). ``error_estimate`` is the
    largest of the rows' estimates (``solve_particular``). ``terms``
    evaluates F; the residual report reads S alone, through one
    ``grid_table`` per side.
    """

    side: str
    geometry: CylinderGeometry
    f_modal: np.ndarray
    w_modal: np.ndarray
    fprime_left: np.ndarray
    fprime_right: np.ndarray
    f3_left: np.ndarray
    f3_right: np.ndarray
    error_estimate: float
    active: np.ndarray
    layers: np.ndarray

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

        Interior values are one product of the [S; w] coefficients with
        T_k and T_k' at the points (``_point_table``): S and S' are orders
        0 and 1, w - mu S and w' - mu S' orders 2 and 3; the end layers H
        add their closed form (``_exponential_table``). Points within
        ``ENDPOINT_TOL`` of the interval length of an end take the end:
        odd orders the stored traces exactly, even orders the built-in
        homogeneous conditions F = F'' = 0. Rows outside ``active`` are 0.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if not self.active.size:
            return np.zeros((4, self.m, xs.size))
        rows = self.active
        lo, hi = self.geometry.interval(self.side)
        at_lo, at_hi, inner, basis = _point_table(xs, lo, hi, self.f_modal.shape[1])
        vals = np.vstack([self.f_modal, self.w_modal]) @ basis  # [F, F'; w, w'] by rows
        f, w = vals.reshape(2, rows.size, 2, -1).transpose(0, 2, 1, 3)  # (value, slope) first
        part = np.zeros((4, rows.size, xs.size))
        part[:2, :, inner] = f
        part[2:, :, inner] = w - mu[rows, None] * f
        part[1::2, :, at_lo] = np.array([self.fprime_left[rows], self.f3_left[rows]])[..., None]
        part[1::2, :, at_hi] = np.array([self.fprime_right[rows], self.f3_right[rows]])[..., None]
        if self.layers.any() and inner.any():
            g = -np.sqrt(-mu[rows, None])
            s1, s2 = (xs[inner] - lo)[None, :], (hi - xs[inner])[None, :]
            part[:, :, inner] += _exponential_table(g, s1, s2, np.exp(g * s1), np.exp(g * s2),
                                                    *self.layers[:, :, None])
        out = np.zeros((4, self.m, xs.size))
        out[:, rows] = part
        return out

    @classmethod
    def zero(cls, side: str, geometry: CylinderGeometry, m: int):
        # No active mode: empty coefficient tables and zero traces.
        zm = np.zeros(m)
        return cls(side, geometry, np.zeros((0, 0)), np.zeros((0, 0)), zm, zm.copy(),
                   zm.copy(), zm.copy(), 0.0, np.zeros(0, dtype=int), np.zeros((4, 0)))


def _columns(xs: np.ndarray, lo: float, half: float, length: int) -> np.ndarray:
    """T_k and then T_k' (k < length) at points xs inside [lo, lo + 2 half]: (length, 2 len(xs)).

    T_k(cos t) = cos kt and T_k'(cos t) = k sin kt / sin t, from the
    powers of e^{it}, on the interval mapped onto [-1, 1]; T_k' is the
    x-derivative (the 1 / half of the map included).
    """
    z = np.exp(1j * np.arccos((xs - lo) / half - 1.0))
    powers = np.empty((length, z.size), dtype=complex)
    powers[0], powers[1:] = 1.0, z
    powers = np.cumprod(powers, axis=0)  # e^{ik theta}: cos and sin of k theta
    k = np.arange(length)[:, None]
    return np.hstack([powers.real, k * powers.imag / (half * z.imag)])


def _point_table(xs: np.ndarray, lo: float, hi: float, length: int) -> tuple:
    """The point tables of ``ParticularSolution.terms`` on [lo, hi]: (at_lo, at_hi, inner, basis).

    ``at_lo`` and ``at_hi`` mark the points xs that take an end, ``inner``
    the rest; ``basis`` holds T_k and then T_k' (k < length) at the inner
    points (``_columns``).
    """
    half, tol = 0.5 * (hi - lo), ENDPOINT_TOL * (hi - lo)
    at_lo, at_hi = xs - lo <= tol, hi - xs <= tol
    inner = ~(at_lo | at_hi)
    return at_lo, at_hi, inner, _columns(xs[inner], lo, half, length)


@lru_cache(maxsize=16)
def grid_table(lo: float, hi: float, n: int, length: int) -> np.ndarray:
    """T_k, then T_k' (k < length), at the n points of ``CylinderGeometry.grid``: (length, 2n).

    Read-only and memoized, so a run of solves on one geometry forms it
    once per series length. The inner columns are ``_columns``'; at the
    ends t = -1 and 1, T_k = (-1)^k and 1, and T_k' = (-1)^(k+1) k^2 / half
    and k^2 / half, exactly. With it one product gives a series and its
    slope at every grid point, the ends included (``residual_report``).
    A length-2049 table at 33 points is about 1 MB, so 16 of them stay small.
    """
    half, k = 0.5 * (hi - lo), np.arange(length)[:, None]
    sign, slope = np.where(k % 2, -1.0, 1.0), k**2.0 / half
    inner = _columns(np.linspace(lo, hi, n)[1:-1], lo, half, length).reshape(length, 2, n - 2)
    table = np.concatenate([np.stack([sign, -sign * slope], axis=1), inner,  # lo, inner, hi
                            np.stack([sign**2, slope], axis=1)], axis=2)
    table.flags.writeable = False
    return table.reshape(length, 2 * n)


def _exponential_table(g, s1, s2, e1, e2, big_a, big_b, big_c, big_d) -> np.ndarray:
    """Orders 0..3 of E1 (A + s1 B) + E2 (C + s2 D) in x, shape (4,) + the broadcast shape.

    d/dx E1 = g E1 and d/dx E2 = -g E2 (E1 = e1 = e^{g s1}, E2 = e2 = e^{g s2}).
    With b = E1 B, d = E2 D, p = E1 A + s1 b and n = E2 C + s2 d: u = p + n,
    u' = g (p - n) + (b - d), u'' = g^2 (p + n) + 2g (b + d) and
    u''' = g^2 [g (p - n) + 3 (b - d)].
    """
    b = e1 * big_b
    d = e2 * big_d
    p = e1 * big_a + s1 * b
    n = e2 * big_c + s2 * d
    odd = g * (p - n)
    out = np.empty((4,) + p.shape)
    out[0], out[1] = p + n, odd + (b - d)
    out[2], out[3] = g**2 * out[0] + 2.0 * g * (b + d), g**2 * (odd + 3.0 * (b - d))
    return out


class _Layout(NamedTuple):
    """The O(n) constants of a length-n stage solve (``_layout``).

    ``points`` are the n Chebyshev extreme points -cos(pi j / (n - 1)) of
    [-1, 1], ascending and exactly antisymmetric; for n = 2^k + 1 the
    points of n nest in those of 2n - 1. ``dct`` turns the real FFT of
    the samples' even extension into T coefficients. A solve runs in
    parity order: the even coefficient indices, then the odd ones
    (``even`` of them); ``natural`` gathers natural order back. ``fixed``
    + lam ``slope`` are the (3, n) bands, ``rows`` the solve position of
    each equation row j = 0..n-3, ``unit`` the e_0 of each block, and
    ``s1s0`` the three diagonals of S1 S0 (``_layout``). ``block`` is the
    parity block of each position, and ``slopes`` holds T_k'(-1) =
    (-1)^(k+1) k^2 and T_k'(1) = k^2.
    """

    points: np.ndarray
    dct: np.ndarray
    natural: np.ndarray
    even: int
    fixed: np.ndarray
    slope: np.ndarray
    rows: np.ndarray
    unit: np.ndarray
    s1s0: np.ndarray
    block: np.ndarray
    slopes: np.ndarray


@lru_cache(maxsize=32)
def _layout(n: int) -> _Layout:
    """Bands of D2 - lam S1 S0 with one boundary row per parity, for u'' - lam u = g, u(+-1) = 0.

    In T to C^(2) coefficients D2 c_j = 2 (j + 2) c_{j+2}, and S1 S0 has
    the offsets 0, 2, 4: (S1 S0 c)_j = s0_j c_j / (j + 1)
    - (1 / (j + 1) + 1 / (j + 3)) c_{j+2} / 2 + c_{j+4} / (2 (j + 3)),
    s0 = 1 at j = 0 and 1/2 after (S0: T_0 = C^(1)_0, T_k = (C^(1)_k -
    C^(1)_{k-2}) / 2; S1: C^(1)_k = (C^(2)_k - C^(2)_{k-2}) / (k + 1)).
    In parity order the equation row j touches the neighbouring positions
    of one block only, so below each block's boundary row (u(1) + u(-1)
    for the even block, u(1) - u(-1) for the odd one: the sum of the
    block's coefficients) the system is tridiagonal. The boundary row
    keeps its first two ones here, and ``_bordered`` adds the rest. The
    bands are in ``factor_banded``'s LAPACK band storage, with zero
    coupling into the next block or past the row's end.
    """
    order = np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)])
    even = (n + 1) // 2
    j = order - 2.0  # the equation row held at each position below a boundary row
    firsts = [0, even]
    j[firsts] = 0.0
    sub = -np.where(j == 0.0, 1.0, 0.5) / (j + 1.0)
    sup = -0.5 / (j + 3.0)
    sup[[even - 1, n - 1]] = 0.0
    fixed, slope = np.zeros((3, n)), np.zeros((3, n))
    fixed[1], slope[1] = 2.0 * (j + 2.0), 0.5 / (j + 1.0) + 0.5 / (j + 3.0)
    slope[0, 1:], slope[2, :-1] = sup[:-1], sub[1:]
    slope[2, even - 1] = slope[2, -1] = 0.0
    fixed[1, firsts] = fixed[0, [1, even + 1]] = 1.0
    slope[1, firsts] = slope[0, [1, even + 1]] = 0.0
    unit = np.zeros(n)
    unit[firsts] = 1.0
    eq = np.arange(n - 2.0)
    s1s0 = np.stack([np.where(eq == 0.0, 1.0, 0.5) / (eq + 1.0),
                     -0.5 / (eq + 1.0) - 0.5 / (eq + 3.0), 0.5 / (eq + 3.0)])
    k = np.arange(n)
    sign = np.where(k % 2, -1.0, 1.0)  # the points ascend: T_k(-t) = (-1)^k T_k(t)
    dct = sign / (n - 1)
    dct[[0, -1]] *= 0.5
    natural = np.argsort(order)
    arrays = _Layout(np.sin(0.5 * np.pi * np.arange(1 - n, n, 2) / (n - 1)), dct, natural, even,
                     fixed, slope, natural[2:], unit, s1s0, (np.arange(n) >= even).astype(int),
                     np.stack([-sign * k**2, k**2.0]))
    for arr in arrays:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return arrays


def _coefficients(values: np.ndarray, lay: _Layout) -> np.ndarray:
    """Chebyshev-T coefficients of the interpolants of the rows of ``values``, at ``lay.points``.

    One real FFT of the even extension (a DCT-I), row by row, so a row's
    coefficients do not depend on the other rows.
    """
    return np.fft.rfft(np.hstack([values, values[:, -2:0:-1]]), axis=1).real * lay.dct


def _tail(coeffs: np.ndarray, share: int = 8) -> np.ndarray:
    """Along the last axis: the largest of the last max(2, n // share) coefficients, over the largest.

    Zeros have tail 0. The window holds both parities, so a series that
    is even or odd in x still shows its tail.
    """
    size = np.abs(coeffs)
    window = size[..., -max(2, coeffs.shape[-1] // share):].max(axis=-1)
    return window / np.maximum(size.max(axis=-1), _TINY)


def _layer_length(lam: np.ndarray) -> np.ndarray:
    """Chebyshev length that resolves the boundary layers of a stage with parameter lam.

    The stage solutions carry boundary layers e^{-sqrt(lam) (1 +- t)},
    whose coefficients fall like exp(-k^2 / (2 sqrt(lam))): about
    9.5 lam^(1/4) of them reach a tail below ``CHOP_TOL``.
    """
    return 9.5 * lam**0.25


def _neumann(f: list, lam: float) -> list:
    """(I - D^2 / lam)^{-1} f for T coefficients f, a list, by one downward sweep.

    With A_m the sum of 2i y_i over i >= m with i - m even, (D y)_j =
    A_{j+1} and B_m the sum of 2j (D y)_j over j >= m with j - m even,
    (D^2 y)_k = B_{k+1}, halved at k = 0: y_k = f_k + (D^2 y)_k / lam needs
    only y_j for j >= k + 2, so the top coefficients come first. Each sum
    is a running sum of its own parity, so this is the two-step
    derivative recurrence and O(n). Scalar arithmetic: a short row costs
    what its few coefficients cost.
    """
    n = len(f)
    y, a, b = [0.0] * n, [0.0] * (n + 2), [0.0] * (n + 3)
    for k in range(n - 1, -1, -1):
        b[k + 1] = b[k + 3] + 2.0 * (k + 1) * a[k + 2]
        y[k] = f[k] + (0.5 if k == 0 else 1.0) * b[k + 1] / lam
        a[k] = a[k + 2] + 2.0 * k * y[k]
    return y


def _layer_free(coeffs: list, mu: float, half: float) -> Optional[tuple]:
    """F = P + H for one row of forcing coefficients, or None where that is not safe.

    In t on [-1, 1] the row solves (D^2 - lam)^2 P = half^4 f with
    lam = -half^2 mu. D^2 is nilpotent on the chopped series (coefficients
    past the last one above ``CHOP_TOL`` of the largest dropped), so
    w = P'' + mu P = -half^2 lam^-1 y and P = half^4 lam^-2 z with
    y = (I - D^2 / lam)^{-1} f and z the same of y (``_neumann``).

    The rounding amplification is the same pair of sweeps run on |f|:
    (I - D^2 / lam)^{-2} |f| = sum_j (j + 1) (D^2 / lam)^j |f| (D^2 has no
    negative entry, so this bounds every term and every sum that forms
    one), in the 1-norm, over the size of the largest F that a forcing of
    this size can give, ||f||_1 (1 - sech r)^2 with r = sqrt(lam) (the
    maximum principle of each Dirichlet stage: ||w|| <= ||g|| (1 - sech r)
    / lam; 1 - sech r = tanh(r / 2) tanh r). It counts the cancellation
    between P and the end layers as well as within P. The row is safe
    when eps times its amplification is at most ``CHOP_TOL``.

    H = E1 (A + s1 B) + E2 (C + s2 D) with E1 = e^{g s1}, E2 = e^{g s2},
    g = -sqrt(-mu), s1 = x - lo, s2 = hi - x and e = e^{g L} on the
    interval of length L = 2 half (``SubproblemSolution.modal_fields``'
    form). H = -P and H'' - g^2 H = g^2 P - P'' at both ends, where
    H'' - g^2 H = 2g (B + e D) at lo and 2g (e B + D) at hi, and
    H = A + e (C + L D) at lo and e (A + L B) + C at hi: two 2 x 2
    systems, solved exactly, so nothing assumes e below rounding. With
    p - n = A - e (C + L D), -(C - e (A + L B)) and b - d = B - e D,
    -(D - e B) at (lo, hi), H' = g (p - n) + (b - d) and
    H''' = g^2 [g (p - n) + 3 (b - d)] add to P's end sums. Returns the
    coefficients (P, w), the traces ((F', F''') at (lo, hi)), the weights
    (A, B, C, D) and the amplification.
    """
    cut = CHOP_TOL * max(map(abs, coeffs))
    end = len(coeffs)
    while abs(coeffs[end - 1]) <= cut:
        end -= 1
    f = coeffs[:end]
    size = [abs(c) for c in f]
    lam = -half * half * mu
    r = math.sqrt(lam)
    scale = sum(size) * (math.tanh(0.5 * r) * math.tanh(r)) ** 2
    amp = sum(_neumann(_neumann(size, lam), lam)) / scale if scale > 0.0 else math.inf
    if not amp * _EPS <= CHOP_TOL:
        return None
    y = _neumann(f, lam)
    p = [half**4 / lam**2 * v for v in _neumann(y, lam)]
    w = [-half**2 / lam * v for v in y]
    ends = []  # at (lo, hi): P, w, then P', w' (T_k(-1) = (-1)^k, T_k'(+-1) = (+-1)^(k+1) k^2)
    for series in (p, w):
        plus = sum(series)
        minus = sum(series[0::2]) - sum(series[1::2])
        slope = [k * k * c for k, c in enumerate(series)]
        ends.append((minus, plus, (sum(slope[1::2]) - sum(slope[0::2])) / half, sum(slope) / half))
    (p_lo, p_hi, dp_lo, dp_hi), (w_lo, w_hi, dw_lo, dw_hi) = ends
    g, length = -math.sqrt(-mu), 2.0 * half
    e = math.exp(g * length)

    def pair(at_lo, at_hi):  # (X, Y) with X + e Y = at_lo and e X + Y = at_hi
        return (at_lo - e * at_hi) / (1.0 - e * e), (at_hi - e * at_lo) / (1.0 - e * e)

    big_b, big_d = pair((g * g * p_lo - (w_lo - mu * p_lo)) / (2.0 * g),
                        (g * g * p_hi - (w_hi - mu * p_hi)) / (2.0 * g))
    big_a, big_c = pair(-p_lo - e * length * big_d, -p_hi - e * length * big_b)
    traces = []  # the hi end is the reflection: (A, B) and (C, D) swap, odd orders change sign
    for sign, (near, slope_near, far, slope_far), dp, dw in (
            (1.0, (big_a, big_b, big_c, big_d), dp_lo, dw_lo),
            (-1.0, (big_c, big_d, big_a, big_b), dp_hi, dw_hi)):
        odd = sign * g * (near - e * (far + length * slope_far))  # g (p - n)
        slope = sign * (slope_near - e * slope_far)  # b - d
        traces.append((dp + (odd + slope), (dw - mu * dp) + g * g * (odd + 3.0 * slope)))
    return (p, w), tuple(zip(*traces)), (big_a, big_b, big_c, big_d), amp


def _by_length(rows: list, lengths: list) -> list:
    """The rows grouped by their Chebyshev length, shortest first: [(n, rows)]."""
    groups = {}
    for row in rows:
        groups.setdefault(lengths[row], []).append(row)
    return sorted(groups.items())


def _stage_rhs(g: np.ndarray, lay: _Layout, scale: float) -> np.ndarray:
    """``scale`` S1 S0 g at the equation rows of ``lay``, 0 at its boundary rows.

    ``g`` holds T coefficients in natural order.
    """
    c2 = g[:, :-2] * lay.s1s0[0] + g[:, 2:] * lay.s1s0[1]
    c2[:, :-2] += g[:, 4:] * lay.s1s0[2, :-2]
    rhs = np.zeros(g.shape)
    rhs[:, lay.rows] = scale * c2
    return rhs


def _bordered(y: np.ndarray, z: np.ndarray, lay: _Layout) -> np.ndarray:
    """Sherman-Morrison: the natural-order solution with each boundary row whole.

    Per parity block the system is T + e_0 v^T with v the block's ones
    past its first two entries; ``y`` solves T with the right-hand side
    and ``z`` with e_0 (both in parity order), so the solution is
    y - z (v.y) / (1 + v.z).
    """
    cuts = [2, lay.even, lay.even + 2]
    sums_y, sums_z = (np.add.reduceat(v, cuts, axis=1)[:, ::2] for v in (y, z))
    ratio = sums_y / (1.0 + sums_z)
    return (y - z * ratio[:, lay.block])[:, lay.natural]


def _solve_groups(lams: list, fhats: list, scale: float) -> list:
    """Both Dirichlet stages, w from fhat and then F from w, for groups of rows of one length each.

    ``lams`` and ``fhats`` hold each group's (k,) lam and (k, n) forcing
    coefficients. Every row is one system of a batch, padded to the
    longest length with identity rows; a row's bands couple nothing past
    its length, so it eliminates exactly as it would alone. One
    factorization serves both stages, and the first solve also takes the
    e_0 columns of ``_bordered``, which the second reuses. Returns each
    group's natural-order (F, w) coefficients, shape (2, k, n).
    """
    lays = [_layout(fhat.shape[1]) for fhat in fhats]
    size = max(fhat.shape[1] for fhat in fhats)
    cuts = np.cumsum([fhat.shape[0] for fhat in fhats])[:-1]

    def padded(rows, pad=0.0):  # (..., n) -> (..., size), ``pad`` past n
        out = np.full(rows.shape[:-1] + (size,), pad)
        out[..., :rows.shape[-1]] = rows
        return out

    def solve(rhs):  # (..., K, size) right-hand sides -> each group's (..., k, n) solution
        sol = np.moveaxis(solve_banded(lu, np.moveaxis(rhs, -1, 0)), 0, -1)
        return [part[..., :g.shape[1]] for part, g in zip(np.split(sol, cuts, axis=-2), fhats)]

    ab = np.concatenate([padded(lay.fixed, [[0.0], [1.0], [0.0]])[:, None]  # identity rows past n
                         + lam[:, None] * padded(lay.slope)[:, None]
                         for lay, lam in zip(lays, lams)], axis=1)
    lu = factor_banded(np.moveaxis(ab, -1, 1))
    yzs = solve(np.concatenate([padded(np.stack([_stage_rhs(g, lay, scale),
                                                 np.broadcast_to(lay.unit, g.shape)]))
                                for g, lay in zip(fhats, lays)], axis=1))
    ws = [_bordered(y, z, lay) for (y, z), lay in zip(yzs, lays)]
    fs = solve(np.concatenate([padded(_stage_rhs(w, lay, scale)) for w, lay in zip(ws, lays)]))
    return [np.stack([_bordered(f, z, lay), w]) for f, (_, z), w, lay in zip(fs, yzs, ws, lays)]


def solve_particular(
    operator_mu: np.ndarray,
    geometry: CylinderGeometry,
    side: str,
    forcing: ModalForcing,
    n_x: int = 129,
) -> ParticularSolution:
    """Solve the homogeneous-ends particular problem on one interval.

    The problem decouples by mode, and only the forcing's declared
    ``modes`` are sampled, once per Chebyshev length used. A row first
    resolves its forcing alone: from 17 points it refines n -> 2n - 1 (the
    points nest) until the forcing's coefficient tail chops (``_tail`` at
    most ``CHOP_TOL``) or n reaches the cap ``n_x``. A declared mode whose
    samples are zero has F = 0 exactly and is dropped. Per mode mu the
    fourth-order equation factors as (d^2/dx^2 + mu)^2, and each row
    takes one of two routes:

    - layer-free, where eps times the row's rounding amplification is at
      most ``CHOP_TOL`` (``_layer_free``): F = P + H, the polynomial
      particular solution of the row's chopped forcing series plus four
      closed-form end layers, so a stiff row costs what its forcing costs
      and no boundary layer is resolved by coefficients. Its estimate is
      the larger of the forcing's tail and the amplification times n eps:
      the n-point transform and the end sums round at up to about n eps
      of the largest coefficient. Its arithmetic is scalar and O(n) per
      row, so it needs no banded call.
    - the stages, elsewhere: w'' + mu w = f and F'' + mu F = w, each
      solved by the ultraspherical method (Olver and Townsend) in
      Chebyshev-T coefficients, O(n) per mode, one batched solve per stage
      over all pending stage rows (``_solve_groups``). A row goes on from
      its forcing's length and refines until the tails of its forcing, w
      and F all chop or it reaches ``n_x``; its estimate is that tail.
      A rough forcing takes the stages on a stiff row too, and can reach
      the cap below the row's ``_layer_length``; its last eighth can then
      sit at rounding level while its layers are unresolved, so it
      reports the tail of its last half.

    A mode's lengths and route depend on its own data alone, so its result
    does not depend on which other modes are active. The traces F' and
    F''' are the coefficient sums of the series part, plus H's closed
    form. A side without a resampler is not even sampled: it returns
    ``ParticularSolution.zero``. ``n_x``, the largest Chebyshev length,
    passes ``check_grid`` at ``PARTICULAR_MIN_N_X``.

    Parameters
    ----------
    operator_mu : (m,) ndarray
        Eigenvalues of the section operator (the forcing is modal).
    """
    check_side(side)
    check_grid(n_x, PARTICULAR_MIN_N_X)
    mu = np.asarray(operator_mu, dtype=float)
    if forcing.m != mu.size:
        raise DimensionMismatchError(f"forcing has {forcing.m} modes, operator has {mu.size}")
    if forcing.vanishes(side):
        return ParticularSolution.zero(side, geometry, mu.size)
    lo, hi = geometry.interval(side)
    half = 0.5 * (hi - lo)
    modes = forcing.modes
    lam = -half**2 * mu[modes]
    samples = {}  # length -> every declared row at its points, sampled once

    def coefficients(n: int, rows: list) -> np.ndarray:
        if n not in samples:
            samples[n] = forcing.sample_modes(side, lo + half * (1.0 + _layout(n).points))
        return _coefficients(samples[n][rows], _layout(n))

    lengths = [PARTICULAR_MIN_N_X] * modes.size
    forced = {}  # declared row -> (forcing coefficients, tail) where they chop or reach n_x
    pending = list(range(modes.size))
    while pending:
        rounds, pending = _by_length(pending, lengths), []
        for n, rows in rounds:
            fhat = coefficients(n, rows)
            for i, (row, tail) in enumerate(zip(rows, _tail(fhat).tolist())):
                if tail > CHOP_TOL and n < n_x:
                    lengths[row] = min(2 * n - 1, n_x)
                    pending.append(row)
                elif fhat[i].any():
                    forced[row] = fhat[i], tail
    done = {}  # declared row -> ((F or P, w), (F', F''') at (lo, hi), layer weights, estimate)
    pending = []
    for row, (fhat, tail) in sorted(forced.items()):
        free = _layer_free(fhat.tolist(), float(mu[modes[row]]), half)
        if free is None:
            pending.append(row)
        else:
            *solution, amp = free
            done[row] = (*solution, max(tail, amp * lengths[row] * _EPS))
    short = (_layer_length(lam) > n_x).tolist() if pending else []
    while pending:
        groups = _by_length(pending, lengths)
        fhats = [coefficients(n, rows) for n, rows in groups]
        solved = _solve_groups([lam[rows] for _, rows in groups], fhats, half**2)
        pending = []
        for (n, rows), fhat, fw in zip(groups, fhats, solved):
            tails = _tail(np.stack([fhat, *fw])).max(axis=0).tolist()
            # One row per (F or w, mode, end), summed along its 2-D row so that a
            # mode's sums round the same whichever other modes are present.
            ends = (fw[:, :, None] * _layout(n).slopes).reshape(-1, n).sum(axis=1) / half
            ends = ends.reshape(2, len(rows), 2)
            for i, row in enumerate(rows):
                if tails[i] > CHOP_TOL and n < n_x:
                    lengths[row] = min(2 * n - 1, n_x)
                    pending.append(row)
                else:
                    tail = _tail(np.stack([fhat[i], *fw[:, i]]), 2).max() if short[row] else tails[i]
                    fprime, wprime = ends[:, i]
                    done[row] = (fw[:, i], (fprime, wprime - mu[modes[row]] * fprime),
                                 (0.0,) * 4, float(tail))
    keep = sorted(done)
    tables = np.zeros((2, len(keep), max((len(done[row][0][0]) for row in keep), default=0)))
    traces = np.zeros((2, 2, mu.size))  # (F', F''') at (lo, hi)
    layers = np.zeros((4, len(keep)))
    for i, row in enumerate(keep):
        series, traces[:, :, modes[row]], layers[:, i], _ = done[row]
        tables[:, i, :len(series[0])] = series
    (fp_l, fp_r), (f3_l, f3_r) = traces
    return ParticularSolution(
        side=side, geometry=geometry, f_modal=tables[0], w_modal=tables[1],
        fprime_left=fp_l, fprime_right=fp_r, f3_left=f3_l, f3_right=f3_r,
        error_estimate=max((done[row][-1] for row in keep), default=0.0),
        active=modes[keep], layers=layers,
    )


def _check_vectors(m: int, *vectors: np.ndarray) -> list[np.ndarray]:
    out = []
    for vec in vectors:
        arr = np.asarray(vec, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.shape != (m,):
            raise DimensionMismatchError(f"expected vector of length {m}, got {arr.shape}")
        out.append(arr)
    return out


def stack_symbols(*rows: SideSymbols) -> SideSymbols:
    """One ``SideSymbols`` holding the given intervals' symbols row by row.

    ``g``, ``e``, ``u`` and ``v`` are (rows, m), ``delta`` a (rows, 1)
    column, and ``f`` is empty: the closed forms below read no f. They
    are per-mode arithmetic, so on these symbols and on data stacked the
    same way they evaluate every row in one pass, each row with the bits
    of its own evaluation. ``g`` is repeated to the full shape: at small
    m, broadcasting costs numpy more than the arithmetic. Read-only, as
    the rows' own arrays are.
    """
    arrays = {name: np.array([getattr(r, name) for r in rows]) for name in ("g", "e", "u", "v")}
    arrays["delta"] = np.array([[r.delta] for r in rows])
    for arr in arrays.values():
        arr.flags.writeable = False
    return SideSymbols(f=(), **arrays)


def _end_coefficients(ops: SideSymbols, value, sigma) -> tuple:
    """Coefficients (a1..a4) that a value phi and a slope sigma at the left end of an interval contribute.

    With n = e (phi + delta (g phi + sigma)):
    a1 = (phi + n) / 2u, a2 = -[(g phi - sigma) + e (g phi + sigma)] / 2u,
    a3 = (phi - n) / 2v and a4 = -[(g phi - sigma) - e (g phi + sigma)] / 2v.
    The right end is the reflection that swaps s1 and s2: its slope enters
    with the opposite sign, and its a1 and a2 change sign, which the
    callers apply by subtracting them. e scales the sums g phi + sigma,
    which can cancel, only after they are formed, and 1/2u, 1/2v scale each
    numerator only after it is summed. On stacked symbols and data
    (``stack_symbols``) every row rounds as it would alone.
    """
    gphi = ops.g * value
    gsum = gphi + sigma
    n = ops.e * (value + ops.delta * gsum)
    odd, even = gphi - sigma, ops.e * gsum
    return (0.5 * (value + n) / ops.u, -0.5 * (odd + even) / ops.u,
            0.5 * (value - n) / ops.v, -0.5 * (odd - even) / ops.v)


def end_values(ops: SideSymbols, alphas) -> tuple:
    """Closed-form u and u' at both ends of one interval, per mode, with F = 0: ((u, u') left, (u, u') right).

    ``SubproblemSolution.modal_fields``' formulas with its grouping A = a1 + a3,
    B = a2 + a4, C = a3 - a1, D = a4 - a2, at (E1, E2, s1, s2) = (1, e, 0, delta)
    on the left end and (e, 1, delta, 0) on the right; the unit factors and
    zero terms are dropped, which changes no bit, so the values match
    ``modal_fields`` of the homogeneous part at the ends exactly, without
    an exponential. On stacked symbols and coefficients it reads every
    row's interval at once, with the same bits.
    """
    g, e, delta = ops.g, ops.e, ops.delta
    a1, a2, a3, a4 = alphas
    big_a, big_b, big_c, big_d = a1 + a3, a2 + a4, a3 - a1, a4 - a2
    d = e * big_d  # left: b = B, p = A
    n = e * big_c + delta * d
    b = e * big_b  # right: d = D, n = C
    p = e * big_a + delta * b
    du_left, du_right = g * (big_a - n) + (big_b - d), g * (p - big_c) + (b - big_d)
    return (big_a + n, du_left), (p + big_c, du_right)


# The sign of E1 - E2 at gamma per interval row: (E1, E2) = (e, 1) at the
# minus interval's right end and (1, e) at the plus interval's left end.
_GAMMA_ODD = np.array([[1.0], [-1.0]])


def interface_fluxes(both: SideSymbols, a2, a4, fprime, f3) -> tuple:
    """Closed-form flux traces t2 = u'' - M^2 u and t3 = u''' - M^2 u' at gamma, (2, m) each.

    Every input has one row per interval (minus, plus): the symbols
    ``both`` (``stack_symbols`` of the two), the coefficients a2, a4 and
    the particular traces F', F''' at gamma. d^2 E = g^2 E, so the
    a1, a3 terms cancel exactly, and F = F'' = 0 at gamma; with (E1, E2)
    = (e, 1) on the minus side and (1, e) on the plus side,
    t2 = 2g [(E1 - E2) a2 + (E1 + E2) a4] and
    t3 = 2g^2 [(E1 + E2) a2 + (E1 - E2) a4] + F''' - g^2 F'.
    Subtracting differentiated fields instead rounds at eps g^3 |u|.
    """
    g = both.g
    odd, even = _GAMMA_ODD * (both.e - 1.0), both.e + 1.0
    two_g = 2.0 * g
    t2 = two_g * (odd * a2 + even * a4)
    t3 = two_g * g * (even * a2 + odd * a4) + (f3 - g * g * fprime)
    return t2, t3


def phi_tilde_minus(ops: SideSymbols, phi1, phi2, fprime_a, fprime_gamma) -> tuple:
    """Boundary-source quadruple of the minus interval: (phi1, phi2 - F'(a)) at a, -F' at gamma.

    Both ends in one pass, one row each: a (left) and gamma (right, so the
    slope -F' enters as F' and its a1, a2 are subtracted).
    """
    phi1, phi2, fpa, fpg = _check_vectors(ops.m, phi1, phi2, fprime_a, fprime_gamma)
    a1, a2, a3, a4 = _end_coefficients(ops.ends, np.array([phi1, np.zeros(ops.m)]),
                                       np.array([phi2 - fpa, fpg]))
    return a1[0] - a1[1], a2[0] - a2[1], a3[0] + a3[1], a4[0] + a4[1]


def phi_tilde_plus(ops: SideSymbols, phi1, phi2, fprime_gamma, fprime_b) -> tuple:
    """Boundary-source quadruple of the plus interval: (phi1, phi2 - F'(b)) at b, -F' at gamma.

    Both ends in one pass, one row each: gamma (left) and b (right, so
    its slope enters as F'(b) - phi2 and its a1, a2 are subtracted).
    """
    phi1, phi2, fpg, fpb = _check_vectors(ops.m, phi1, phi2, fprime_gamma, fprime_b)
    a1, a2, a3, a4 = _end_coefficients(ops.ends, np.array([np.zeros(ops.m), phi1]),
                                       np.array([-fpg, fpb - phi2]))
    return a1[0] - a1[1], a2[0] - a2[1], a3[0] + a3[1], a4[0] + a4[1]


def alphas_minus(ops: SideSymbols, psi1, psi2, phi_tilde) -> tuple:
    """Representation coefficients of the minus interval: phi~ plus (psi1, psi2) at gamma, its right end."""
    psi1, psi2 = _check_vectors(ops.m, psi1, psi2)
    a1, a2, a3, a4 = _end_coefficients(ops, psi1, -psi2)
    pt1, pt2, pt3, pt4 = phi_tilde
    return pt1 - a1, pt2 - a2, pt3 + a3, pt4 + a4


def alphas_plus(ops: SideSymbols, psi1, psi2, phi_tilde) -> tuple:
    """Representation coefficients of the plus interval: phi~ plus (psi1, psi2) at gamma, its left end."""
    psi1, psi2 = _check_vectors(ops.m, psi1, psi2)
    a1, a2, a3, a4 = _end_coefficients(ops, psi1, psi2)
    pt1, pt2, pt3, pt4 = phi_tilde
    return pt1 + a1, pt2 + a2, pt3 + a3, pt4 + a4


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
        C = a3 - a1, D = a4 - a2 (``_exponential_table``). Points within
        ``ENDPOINT_TOL`` of the interval length outside an end (an end for
        ``ParticularSolution.terms`` too) are moved onto it; points farther
        out raise ValueError (``CylinderGeometry.clip_points``).
        """
        xs = self.geometry.clip_points(self.side, x)
        lo, hi = self.geometry.interval(self.side)
        gm = self.operator.generator_eigenvalues[:, None]
        s1, s2 = (xs - lo)[None, :], (hi - xs)[None, :]
        a1, a2, a3, a4 = (a[:, None] for a in self.alphas)
        out = _exponential_table(gm, s1, s2, np.exp(s1 * gm), np.exp(s2 * gm),
                                 a1 + a3, a2 + a4, a3 - a1, a4 - a2)
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

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
conditions at both interval ends, a chopped Chebyshev series per mode;
it is sampled and solved on the forcing's declared modes only
(``ModalForcing.modes``), all of them in one banded call per factor stage
and refinement round, and every other mode's F is zero, as is every
mode's on a side without a resampler.
Everything here is linear in the data. All operators are functions of
M, so the coefficient algebra runs per mode on eigenbasis coordinates
(``SideSymbols``) and fields are evaluated there too, orders 0..3 in one
table (``modal_fields``); ``evaluate`` maps them back where a physical
value is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from ._scipy import solve_banded
from .errors import DimensionMismatchError
from .problem import SIDE_MINUS, CylinderGeometry, ModalForcing, check_grid, check_side
from .section_operator import SectionOperator
from .symbols import interval_symbols

_ENDPOINT_TOL = 1e-10
PARTICULAR_MIN_N_X = 17
# A mode's Chebyshev series chops at the first length where the tails of
# its forcing, w and F are all at most CHOP_TOL of their largest coefficient.
CHOP_TOL = 1e-14
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


@dataclass(frozen=True)
class ParticularSolution:
    """Particular solution F of one interval with F = F'' = 0 at both ends.

    ``active`` lists the forced modes, and ``f_modal``, ``w_modal`` hold
    the Chebyshev-T coefficients of their F and w = F'' + mu F on the
    interval (mapped onto [-1, 1]), one row per entry of ``active``; a row
    is as long as its mode needed and zero past that. Every other mode's F
    is exactly zero. The endpoint first-derivative traces and the
    third-derivative traces F''' = w' - mu F' (exact identity of the
    factorized problem) are vectors over all m modes, summed from the
    coefficients. ``error_estimate`` is the largest relative coefficient
    tail of the active rows (``_tail``): rounding level where every row
    chopped, the unresolved tail where a row reached the length cap, and
    the tail of its last half where the cap is below the row's
    ``_layer_length``.
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

        Interior values are one product of the [F; w] coefficients with
        T_k and T_k' at the points (T_k(cos t) = cos kt, T_k'(cos t) =
        k sin kt / sin t, from the powers of e^{it}): F and F' are orders
        0 and 1, w - mu F and w' - mu F' orders 2 and 3. Points within
        ``_ENDPOINT_TOL`` of the interval length of an end take the end:
        odd orders the stored traces exactly, even orders the built-in
        homogeneous conditions F = F'' = 0. Rows outside ``active`` are 0.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros((4, self.m, xs.size))
        rows = self.active
        if not rows.size:
            return out
        lo, hi = self.geometry.interval(self.side)
        half, tol = 0.5 * (hi - lo), _ENDPOINT_TOL * (hi - lo)
        at_lo, at_hi = xs - lo <= tol, hi - xs <= tol
        inner = ~(at_lo | at_hi)
        z = np.exp(1j * np.arccos((xs[inner] - lo) / half - 1.0))
        powers = np.empty((self.f_modal.shape[1], z.size), dtype=complex)
        powers[0], powers[1:] = 1.0, z
        powers = np.cumprod(powers, axis=0)  # e^{ik theta}: cos and sin of k theta
        k = np.arange(powers.shape[0])[:, None]
        basis = np.hstack([powers.real, k * powers.imag / (half * z.imag)])
        vals = np.vstack([self.f_modal, self.w_modal]) @ basis  # [F, F'; w, w'] by rows
        f, w = vals.reshape(2, rows.size, 2, -1).transpose(0, 2, 1, 3)  # (value, slope) first
        part = np.zeros((4, rows.size, xs.size))
        part[:2, :, inner] = f
        part[2:, :, inner] = w - mu[rows, None] * f
        part[1::2, :, at_lo] = np.array([self.fprime_left[rows], self.f3_left[rows]])[..., None]
        part[1::2, :, at_hi] = np.array([self.fprime_right[rows], self.f3_right[rows]])[..., None]
        out[:, rows] = part
        return out

    @classmethod
    def zero(cls, side: str, geometry: CylinderGeometry, m: int):
        # No active mode: empty coefficient tables and zero traces.
        zm = np.zeros(m)
        return cls(side, geometry, np.zeros((0, 0)), np.zeros((0, 0)), zm, zm.copy(),
                   zm.copy(), zm.copy(), 0.0, np.zeros(0, dtype=int))


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
    bands are in ``solve_banded((1, 1))`` layout with zero coupling into
    the next block or row.
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


def _start_length(lam: float, n_x: int) -> int:
    """First Chebyshev length of a row: the fewest 16 * 2^k + 1 points that cover ``_layer_length``.

    Capped at ``n_x``.
    """
    n = 17
    while n < min(_layer_length(lam), n_x):
        n = 2 * n - 1
    return min(n, n_x)


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
    coefficients. Every block of every row goes into one
    ``solve_banded`` call per stage, with zero coupling between blocks, so
    a row eliminates exactly as it would alone. The first call also
    solves for the e_0 columns of ``_bordered``, which the second reuses.
    The bands and right-hand sides are finite by construction (the
    samples pass ``sample_modes``' check), so the solves skip scipy's
    finiteness scan. Returns each group's natural-order (F, w)
    coefficients, shape (2, k, n).
    """
    lays = [_layout(fhat.shape[1]) for fhat in fhats]
    ends = list(accumulate(fhat.size for fhat in fhats))
    spans = [slice(end - fhat.size, end) for end, fhat in zip(ends, fhats)]  # each group's unknowns
    ab = np.concatenate([(lay.fixed[:, None] + lam[:, None] * lay.slope[:, None]).reshape(3, -1)
                         for lay, lam in zip(lays, lams)], axis=1)
    rhs = np.empty((ends[-1], 2))
    for span, g, lay in zip(spans, fhats, lays):
        rhs[span, 0] = _stage_rhs(g, lay, scale).ravel()
        rhs[span, 1] = np.tile(lay.unit, g.shape[0])
    sol = solve_banded((1, 1), ab, rhs, check_finite=False)
    zs = [sol[span, 1].reshape(g.shape) for span, g in zip(spans, fhats)]
    ws = [_bordered(sol[span, 0].reshape(g.shape), z, lay)
          for span, z, g, lay in zip(spans, zs, fhats, lays)]
    rhs = np.concatenate([_stage_rhs(w, lay, scale).ravel() for w, lay in zip(ws, lays)])
    sol = solve_banded((1, 1), ab, rhs, check_finite=False)
    return [np.stack([_bordered(sol[span].reshape(w.shape), z, lay), w])
            for span, z, w, lay in zip(spans, zs, ws, lays)]


def solve_particular(
    operator_mu: np.ndarray,
    geometry: CylinderGeometry,
    side: str,
    forcing: ModalForcing,
    n_x: int = 129,
) -> ParticularSolution:
    """Solve the homogeneous-ends particular problem on one interval.

    The problem decouples by mode, and only the forcing's declared
    ``modes`` are sampled, once per Chebyshev length used. Per mode mu the fourth-order equation factors
    as (d^2/dx^2 + mu)^2, giving two Dirichlet stages, w'' + mu w = f and
    F'' + mu F = w, each solved by the ultraspherical method (Olver and
    Townsend) in Chebyshev-T coefficients: O(n) per mode, one banded call
    per stage over all pending modes (``_solve_groups``). A mode starts at
    ``_start_length`` and refines n -> 2n - 1 (the points nest) until the
    coefficient tails of its forcing, w and F all chop (``_tail`` at most
    ``CHOP_TOL``) or its length reaches the cap ``n_x``. A mode's lengths
    depend on its own data alone, so its result does not depend on which
    other modes are active. A declared mode whose samples are zero has
    F = 0 exactly and is dropped. The traces F' and F''' = w' - mu F' are
    summed from the coefficients. A side without a resampler is not even
    sampled: it returns ``ParticularSolution.zero``. ``n_x``, the largest
    Chebyshev length, passes ``check_grid`` at ``PARTICULAR_MIN_N_X``.

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
    lengths = [_start_length(value, n_x) for value in lam.tolist()]
    short = (_layer_length(lam) > n_x).tolist()
    pending = list(range(modes.size))
    done = {}  # declared row -> ((F, w), (F, w)' at (lo, hi), tail)
    samples = {}  # length -> every declared row at its points, sampled once
    while pending:
        groups = {}
        for row in pending:
            groups.setdefault(lengths[row], []).append(row)
        groups = sorted(groups.items())
        for n, _ in groups:
            if n not in samples:
                samples[n] = forcing.sample_modes(side, lo + half * (1.0 + _layout(n).points))
        fhats = [_coefficients(samples[n][rows], _layout(n)) for n, rows in groups]
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
                elif fhat[i].any():
                    # Capped below its layer length, a row's last eighth can sit at
                    # rounding level while its layers are unresolved: it reports
                    # the tail of its last half instead.
                    tail = _tail(np.stack([fhat[i], *fw[:, i]]), 2).max() if short[row] else tails[i]
                    done[row] = (fw[:, i], ends[:, i], float(tail))
    keep = sorted(done)
    tables = np.zeros((2, len(keep), max((lengths[row] for row in keep), default=0)))
    traces = np.zeros((2, 2, mu.size))  # (F', w') at (lo, hi)
    for i, row in enumerate(keep):
        tables[:, i, :lengths[row]], traces[:, :, modes[row]] = done[row][:2]
    (fp_l, fp_r), (wp_l, wp_r) = traces
    return ParticularSolution(
        side=side, geometry=geometry, f_modal=tables[0], w_modal=tables[1],
        fprime_left=fp_l, fprime_right=fp_r,
        f3_left=wp_l - mu * fp_l, f3_right=wp_r - mu * fp_r,
        error_estimate=max((done[row][-1] for row in keep), default=0.0),
        active=modes[keep],
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
        u''' = g^2 [g (p - n) + 3 (b - d)]. Points within ``_ENDPOINT_TOL``
        of the interval length outside an end (an end for ``ParticularSolution.terms``
        too) are moved onto it; points farther out raise ValueError.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.geometry.interval(self.side)
        tol = _ENDPOINT_TOL * (hi - lo)
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

"""Scalar holomorphic symbols behind the interface operators.

Every operator block of the transmission system is a spectral function of
the section operator; this module holds the underlying scalar functions
of z = -mu (principal branch of sqrt on C minus the negative reals):

* ``u_delta``, ``v_delta``: the symbols of the one-sided solvability
  operators U, V for an interval of length delta,
* ``f_components``: the three interface-block symbols f_{delta,1..3} and
  the determinant remainder g_delta,
* ``f_total``: the scalar determinant symbol, strictly positive on the
  positive real axis for any positive lengths and diffusivities,
* ``f_tilde``: the normalized determinant, f / (16 k+ k- (u v)^2 terms),
  tending to 1 at +infinity.

All functions accept positive real scalars/arrays or complex scalars off
the cut. On the real axis u_delta sums the Taylor series of sinh eps - eps
for eps = delta sqrt(z) <= 1 and uses an expm1 form for eps > 1, so it
keeps full relative accuracy as u_delta ~ eps^3 / 3 -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutError, EvaluationError


@dataclass(frozen=True)
class SymbolContext:
    """Geometry and diffusivity parameters feeding the determinant symbol.

    c and d are the two interval lengths (gamma - a and b - gamma);
    k_minus, k_plus the diffusivities. All must be strictly positive.
    """

    c: float
    d: float
    k_minus: float
    k_plus: float

    def __post_init__(self):
        for name in ("c", "d", "k_minus", "k_plus"):
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0:
                raise ValueError(f"symbol context requires {name} > 0, got {val}")


# Taylor coefficients of (sinh x - x) / x^3 in powers of x^2, 1/3!, 1/5!, ...,
# 1/21!: at x = 1 the first omitted term is below 1e-19 of the sum.
_SINH_SERIES = np.array([1.0 / math.factorial(k) for k in range(3, 22, 2)])


def _checked_sqrt(z):
    """Principal sqrt(z), rejecting the branch cut (-inf, 0]."""
    z = np.asarray(z)
    if np.iscomplexobj(z):
        if np.any((z.imag == 0) & (z.real <= 0)):
            raise BranchCutError("z on the branch cut (-inf, 0] of sqrt")
        return np.sqrt(z.astype(complex))
    if np.any(z <= 0):
        raise BranchCutError("z on the branch cut (-inf, 0] of sqrt")
    return np.sqrt(z.astype(float))


def u_delta(delta: float, z):
    """u_delta(z) = 1 - e^{-2 delta sqrt(z)} - 2 delta sqrt(z) e^{-delta sqrt(z)}.

    On the real axis u = 2 e^{-eps} (sinh eps - eps) with eps = delta sqrt(z);
    for eps <= 1 the difference sinh eps - eps is summed from its Taylor
    series, whose terms are all positive, so nothing cancels.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    eps = delta * _checked_sqrt(z)
    if np.iscomplexobj(eps):
        w = np.exp(-eps)
        return 1.0 - w * w - 2.0 * eps * w
    u = -np.expm1(-2.0 * eps) - 2.0 * eps * np.exp(-eps)
    small = eps <= 1.0
    if not np.any(small):
        return u
    s = np.minimum(eps, 1.0)  # equals eps where the series is used, and stays finite elsewhere
    series = 2.0 * np.exp(-s) * s**3 * np.polynomial.polynomial.polyval(s * s, _SINH_SERIES)
    return np.where(small, series, u)[()]


def v_delta(delta: float, z):
    """v_delta(z) = 1 - e^{-2 delta sqrt(z)} + 2 delta sqrt(z) e^{-delta sqrt(z)}."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    eps = delta * _checked_sqrt(z)
    if np.iscomplexobj(eps):
        w = np.exp(-eps)
        return 1.0 - w * w + 2.0 * eps * w
    return -np.expm1(-2.0 * eps) + 2.0 * eps * np.exp(-eps)


def f_components(delta: float, z):
    """The interface-block symbols (f_{delta,1}, f_{delta,2}, f_{delta,3}, g_delta).

    All four are strictly positive for real z > 0 and tend to (2, 2, 2, 0)
    as z -> +infinity. They satisfy f1 * f3 - f2^2 = g identically.
    Raises EvaluationError, naming the first such entry of z (the mode
    when z = -mu), where u or v evaluates to zero in floating point. On
    the real axis 1 - e^{-eps} and 1 - e^{-2 eps} come from expm1, so
    every term is a sum of accurate positive parts as eps -> 0.
    """
    u = u_delta(delta, z)
    v = v_delta(delta, z)
    vanishing = np.ravel((u == 0) | (v == 0))
    if np.any(vanishing):
        j = int(np.argmax(vanishing))
        raise EvaluationError(
            f"u_delta or v_delta vanishes at mode {j} (z = {np.ravel(z)[j]}, "
            f"delta = {delta:g}): the interval is too short for this mode"
        )
    eps = delta * _checked_sqrt(z)
    e = np.exp(-eps)
    if np.iscomplexobj(eps):
        one_minus_e = 1.0 - e
        one_minus_e2 = 1.0 - e * e
    else:
        one_minus_e = -np.expm1(-eps)
        one_minus_e2 = -np.expm1(-2.0 * eps)
    f1 = (1.0 + e) ** 2 / u + one_minus_e**2 / v
    f2 = (1.0 / u + 1.0 / v) * one_minus_e2
    f3 = one_minus_e**2 / u + (1.0 + e) ** 2 / v
    g = 16.0 * e * e / (u * v)
    return f1, f2, f3, g


def f_total(ctx: SymbolContext, z):
    """Scalar determinant symbol.

    f = k+^2 g_d + k-^2 g_c
        + k+ k- (f_{d,1} f_{c,3} + f_{c,1} f_{d,3} + 2 f_{d,2} f_{c,2}),

    strictly positive for real z > 0; tends to 16 k+ k- at +infinity.
    Raises EvaluationError when a squared diffusivity overflows.
    """
    fd1, fd2, fd3, gd = f_components(ctx.d, z)
    fc1, fc2, fc3, gc = f_components(ctx.c, z)
    kp, km = ctx.k_plus, ctx.k_minus
    try:
        with np.errstate(over="ignore"):
            kp2, km2 = kp**2, km**2
    except OverflowError:  # Python floats raise where numpy floats give inf
        kp2 = km2 = np.inf
    if not (np.isfinite(kp2) and np.isfinite(km2)):
        raise EvaluationError(
            f"determinant symbol overflows: k- = {km:g}, k+ = {kp:g} square past the float range"
        )
    return kp2 * gd + km2 * gc + kp * km * (fd1 * fc3 + fc1 * fd3 + 2.0 * fd2 * fc2)


def f_tilde(ctx: SymbolContext, z):
    """Normalized determinant symbol, f * (u_c u_d v_c v_d)^2 / (16 k+ k-).

    Computed from the defining quotient identity rather than from an
    expansion of the exponential-sum remainder (whose index set is never
    materialized); tends to 1 as z -> +infinity and stays positive on
    the positive real axis.
    """
    prod = (u_delta(ctx.c, z) * u_delta(ctx.d, z)
            * v_delta(ctx.c, z) * v_delta(ctx.d, z))
    return f_total(ctx, z) * prod**2 / (16.0 * ctx.k_plus * ctx.k_minus)


@dataclass(frozen=True)
class PositivityScan:
    """Result of evaluating the determinant symbol on a positive grid."""

    min_value: float
    argmin: float
    grid_size: int
    all_positive: bool

    def to_dict(self) -> dict:
        return {
            "min": self.min_value,
            "argmin": self.argmin,
            "grid_size": self.grid_size,
            "all_positive": self.all_positive,
        }


def positivity_scan(ctx: SymbolContext, grid) -> PositivityScan:
    """Evaluate f on a grid of positive reals and report the minimum.

    The no-vanishing property of f on (0, inf) is what makes the
    interface determinant invertible; this is its executable check.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("positivity scan requires a nonempty grid")
    if np.any(grid <= 0) or not np.all(np.isfinite(grid)):
        raise ValueError("positivity scan grid must contain finite positive reals")
    values = np.asarray(f_total(ctx, grid), dtype=float)
    k = int(np.argmin(values))
    return PositivityScan(
        min_value=float(values[k]),
        argmin=float(grid[k]),
        grid_size=int(grid.size),
        all_positive=bool(values[k] > 0.0),
    )

"""Not-a-knot cubic spline along the last axis (de Boor, ch. IV).

The node slopes solve the tridiagonal not-a-knot system; with three
nodes the two end conditions coincide and the interpolant is the
parabola through them, with two nodes it is the chord. The sums and
products are the ones ``scipy.interpolate.CubicSpline`` forms, so values
and first derivatives agree with it to rounding. The slopes come from
the package's one tridiagonal elimination (``_tridiagonal``).
"""

from __future__ import annotations

import numpy as np

from ._tridiagonal import factor_banded, solve_banded


class CubicSpline:
    """Interpolant of samples ``y`` (rows, n) on increasing nodes ``x`` (n,)."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).T  # (n, rows): one column per row of samples
        n = x.size
        dx = np.diff(x)[:, None]
        slope = np.diff(y, axis=0) / dx
        if n == 2:
            s = np.concatenate([slope, slope])
        elif not y.size:
            s = np.zeros_like(y)
        else:
            ab = np.zeros((3, n))
            ab[1, 1:-1] = 2 * (dx[:-1, 0] + dx[1:, 0])
            ab[0, 2:] = dx[:-1, 0]
            ab[2, :-2] = dx[1:, 0]
            b = np.empty_like(y)
            b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
            if n == 3:
                ab[1, 0] = ab[0, 1] = ab[2, 1] = ab[1, 2] = 1.0
                b[0], b[2] = 2 * slope[0], 2 * slope[1]
            else:
                d0, d1 = x[2] - x[0], x[-1] - x[-3]
                ab[1, 0], ab[0, 1] = dx[1, 0], d0
                ab[1, -1], ab[2, -2] = dx[-2, 0], d1
                b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
                b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
            s = solve_banded(factor_banded(ab), b)
        # Hermite cubic of each interval in powers of (xp - x_i), stored (4, rows, n-1).
        bend = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack([bend / dx, (slope - s[:-1]) / dx - bend, s[:-1], y[:-1]]
                          ).transpose(0, 2, 1)

    def __call__(self, xp, nu: int = 0) -> np.ndarray:
        """Values (``nu`` = 0) or first derivatives (``nu`` = 1), shape (rows, len(xp))."""
        xp = np.asarray(xp, dtype=float)
        i = np.searchsorted(self.x[1:-1], xp, side="right")  # end intervals extrapolate
        t = xp - self.x[i]
        c0, c1, c2, c3 = self.c[:, :, i]
        # Ascending powers added to 0.0 in scipy's order, signed zeros included.
        if nu == 0:
            return 0.0 + c3 + c2 * t + c1 * (t * t) + c0 * (t * t * t)
        if nu == 1:
            return 0.0 + c2 + c1 * t * 2.0 + c0 * (t * t) * 3.0
        raise ValueError(f"spline derivative order must be 0 or 1, got {nu}")

"""Problem-specification types: geometry, boundary data, modal forcing.

These carry the data of the two-interval transmission problem
independently of any solution method; both the representation-formula
solver and the finite-difference oracle consume them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._spline import CubicSpline
from .errors import DimensionMismatchError, InvalidGeometryError
from .section_operator import SectionOperator

SIDE_MINUS = "minus"
SIDE_PLUS = "plus"
SIDES = (SIDE_MINUS, SIDE_PLUS)

# Intervals shorter than this are rejected outright: the lengths act as
# semigroup times, and near-zero lengths are a modeling error, not a regime.
MIN_INTERVAL = 1e-8


def check_side(side: str) -> str:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    return side


@dataclass(frozen=True)
class CylinderGeometry:
    """Axial geometry a < gamma < b of the two-piece cylinder."""

    a: float
    gamma: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.gamma) and np.isfinite(self.b)):
            raise InvalidGeometryError("geometry endpoints must be finite")
        if not (self.a < self.gamma < self.b):
            raise InvalidGeometryError(
                f"need a < gamma < b, got a={self.a}, gamma={self.gamma}, b={self.b}"
            )
        if self.c < MIN_INTERVAL or self.d < MIN_INTERVAL:
            raise InvalidGeometryError(
                f"interval lengths c={self.c:.3e}, d={self.d:.3e} below {MIN_INTERVAL:g}"
            )

    @property
    def c(self) -> float:
        return self.gamma - self.a

    @property
    def d(self) -> float:
        return self.b - self.gamma

    def interval(self, side: str) -> tuple[float, float]:
        check_side(side)
        return (self.a, self.gamma) if side == SIDE_MINUS else (self.gamma, self.b)

    def length(self, side: str) -> float:
        lo, hi = self.interval(side)
        return hi - lo

    def grid(self, side: str, n: int) -> np.ndarray:
        lo, hi = self.interval(side)
        return np.linspace(lo, hi, n)


@dataclass(frozen=True)
class BoundaryData:
    """Outer boundary data: values and axial derivatives at x = a and x = b."""

    phi1_minus: np.ndarray
    phi2_minus: np.ndarray
    phi1_plus: np.ndarray
    phi2_plus: np.ndarray

    def __post_init__(self):
        arrays = {}
        m = None
        for name in ("phi1_minus", "phi2_minus", "phi1_plus", "phi2_plus"):
            vec = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if vec.ndim != 1 or not np.all(np.isfinite(vec)):
                raise DimensionMismatchError(f"{name} must be a finite vector")
            if m is None:
                m = vec.size
            elif vec.size != m:
                raise DimensionMismatchError(
                    f"{name} has length {vec.size}, expected {m}"
                )
            arrays[name] = vec
        for name, vec in arrays.items():
            object.__setattr__(self, name, vec)

    @property
    def m(self) -> int:
        return self.phi1_minus.size

    @classmethod
    def zeros(cls, m: int) -> "BoundaryData":
        z = np.zeros(m)
        return cls(z, z.copy(), z.copy(), z.copy())


def _checked_rows(values, rows: int, points: int) -> np.ndarray:
    """Forcing values as a finite (rows, points) float array, else DimensionMismatchError."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (rows, points):
        raise DimensionMismatchError(
            f"forcing resampler returned shape {vals.shape}, expected {(rows, points)}"
        )
    if not np.all(np.isfinite(vals)):
        raise DimensionMismatchError("forcing samples must be finite")
    return vals


def _mode_rows(modes, m: int) -> np.ndarray:
    """Declared forcing modes as sorted distinct indices in 0..m-1, else DimensionMismatchError.

    Sorted and checked by hand: ``np.unique`` imports ``numpy.ma`` on its
    first call, 15 ms of every cold command-line run.
    """
    rows = np.asarray(modes)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise DimensionMismatchError("forcing modes must be a vector of mode indices")
    rows = np.sort(rows).astype(np.intp)
    if rows.size and not (0 <= rows[0] and rows[-1] < m):
        raise DimensionMismatchError(f"forcing modes outside 0..{m - 1}")
    if np.any(rows[1:] == rows[:-1]):
        raise DimensionMismatchError("forcing modes must be distinct")
    return rows


@dataclass(frozen=True)
class ModalForcing:
    """Per-mode forcing in the eigenbasis of the section operator.

    Stored as samples on one grid per interval; an optional exact
    resampler (``func_minus`` / ``func_plus``, mapping an x-array to a
    (len(modes), len(x)) array of the declared rows) lets closed-form
    test cases be re-evaluated on any grid without interpolation error.
    Sample counts on the two intervals must match.

    ``modes`` are the sorted rows that may be nonzero on either side;
    every other row is zero everywhere. Without a declaration they are
    all m rows when a resampler exists, else the rows with a nonzero
    stored sample. ``sample_modes`` returns the declared rows only.
    """

    geometry: CylinderGeometry
    grid_minus: np.ndarray
    grid_plus: np.ndarray
    samples_minus: np.ndarray
    samples_plus: np.ndarray
    func_minus: Optional[Callable[[np.ndarray], np.ndarray]] = None
    func_plus: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""
    modes: Optional[Sequence[int]] = None

    def __post_init__(self):
        gm = np.asarray(self.grid_minus, dtype=float)
        gp = np.asarray(self.grid_plus, dtype=float)
        sm = np.asarray(self.samples_minus, dtype=float)
        sp = np.asarray(self.samples_plus, dtype=float)
        if gm.size != gp.size:
            raise DimensionMismatchError(
                f"sample counts differ between intervals: {gm.size} vs {gp.size}"
            )
        if sm.shape != (sm.shape[0], gm.size) or sp.shape != (sm.shape[0], gp.size):
            raise DimensionMismatchError(
                f"forcing samples {sm.shape}/{sp.shape} inconsistent with grids"
            )
        if not (np.all(np.isfinite(sm)) and np.all(np.isfinite(sp))):
            raise DimensionMismatchError("forcing samples must be finite")
        for grid, side in ((gm, SIDE_MINUS), (gp, SIDE_PLUS)):
            lo, hi = self.geometry.interval(side)
            tol = 1e-9 * (hi - lo)
            if grid[0] > lo + tol or grid[-1] < hi - tol or np.any(np.diff(grid) <= 0):
                raise InvalidGeometryError(
                    f"forcing grid on side {side!r} must increase and cover [{lo}, {hi}]"
                )
        m = sm.shape[0]
        nonzero = np.any(sm, axis=1) | np.any(sp, axis=1)
        if self.modes is None:
            has_func = self.func_minus is not None or self.func_plus is not None
            modes = np.arange(m) if has_func else np.flatnonzero(nonzero)
        else:
            modes = _mode_rows(self.modes, m)
            nonzero[modes] = False
            if np.any(nonzero):
                raise DimensionMismatchError("forcing samples are nonzero outside the declared modes")
        object.__setattr__(self, "grid_minus", gm)
        object.__setattr__(self, "grid_plus", gp)
        object.__setattr__(self, "samples_minus", sm)
        object.__setattr__(self, "samples_plus", sp)
        object.__setattr__(self, "modes", modes)
        # Per-side interpolant of the declared rows' samples, built on the
        # first sample without a resampler; None marks an all-zero side.
        object.__setattr__(self, "_splines", {})

    @property
    def m(self) -> int:
        return self.samples_minus.shape[0]

    def vanishes(self, side: str) -> bool:
        """True for a side without a resampler whose stored samples are all zero."""
        func, samples = ((self.func_minus, self.samples_minus) if check_side(side) == SIDE_MINUS
                         else (self.func_plus, self.samples_plus))
        return func is None and not np.any(samples)

    def sample_modes(self, side: str, xs: np.ndarray) -> np.ndarray:
        """Values of the declared rows ``modes`` at the points ``xs``, shape (len(modes), len(xs)).

        Exact when the side has a resampler; otherwise the values come
        from a cubic spline of the side's samples on the declared rows,
        built once per side on first use (none for zero samples). Raises
        DimensionMismatchError unless the values are finite and shaped so.
        """
        check_side(side)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        func = self.func_minus if side == SIDE_MINUS else self.func_plus
        if func is not None:
            return _checked_rows(func(xs), self.modes.size, xs.size)
        if side not in self._splines:
            grid = self.grid_minus if side == SIDE_MINUS else self.grid_plus
            samples = self.samples_minus if side == SIDE_MINUS else self.samples_plus
            self._splines[side] = (CubicSpline(grid, samples[self.modes])
                                   if np.any(samples) else None)
        spline = self._splines[side]
        vals = np.zeros((self.modes.size, xs.size)) if spline is None else spline(xs)
        return _checked_rows(vals, self.modes.size, xs.size)

    def sample(self, side: str, xs: np.ndarray) -> np.ndarray:
        """All m rows at the points ``xs``, shape (m, len(xs)): ``sample_modes`` scattered."""
        rows = self.sample_modes(side, xs)
        out = np.zeros((self.m, rows.shape[1]))
        out[self.modes] = rows
        return out

    @classmethod
    def zero(cls, m: int, geometry: CylinderGeometry, n: int = 33) -> "ModalForcing":
        return cls(
            geometry,
            geometry.grid(SIDE_MINUS, n),
            geometry.grid(SIDE_PLUS, n),
            np.zeros((m, n)),
            np.zeros((m, n)),
            label="zero",
        )

    @classmethod
    def from_functions(
        cls,
        geometry: CylinderGeometry,
        m: int,
        func_minus: Callable[[np.ndarray], np.ndarray],
        func_plus: Callable[[np.ndarray], np.ndarray],
        n: int = 33,
        label: str = "",
        modes: Optional[Sequence[int]] = None,
    ) -> "ModalForcing":
        """Forcing from exact resamplers of the rows ``modes`` (all m rows by default).

        Each resampler maps an x-array to its (len(modes), len(x)) values;
        the stored samples are their values on ``n`` points per side.
        """
        rows = np.arange(m) if modes is None else _mode_rows(modes, m)
        grids = [geometry.grid(side, n) for side in SIDES]
        samples = [np.zeros((m, n)), np.zeros((m, n))]
        for full, func, grid in zip(samples, (func_minus, func_plus), grids):
            full[rows] = _checked_rows(func(grid), rows.size, n)
        return cls(geometry, *grids, *samples, func_minus=func_minus, func_plus=func_plus,
                   label=label, modes=rows)

    @classmethod
    def sine(
        cls,
        operator: SectionOperator,
        geometry: CylinderGeometry,
        side: str,
        mode: int,
        k_multiple: int = 1,
        amplitude: float = 1.0,
        n: int = 33,
    ) -> "ModalForcing":
        """Closed-form test forcing whose particular solution is a sine.

        On the chosen interval and mode with eigenvalue mu, the forcing
        amp * (k^2 - mu)^2 sin(k (x - lo)) with k = k_multiple * pi / len
        makes F(x) = amp * sin(k (x - lo)) the exact particular solution
        (its second derivative also vanishes at both ends).
        """
        check_side(side)
        if not 0 <= mode < operator.m:
            raise DimensionMismatchError(f"mode {mode} outside 0..{operator.m - 1}")
        lo, hi = geometry.interval(side)
        k = k_multiple * np.pi / (hi - lo)
        mu = operator.eigenvalues[mode]
        coef = amplitude * (k**2 - mu) ** 2

        def make(active: bool):
            def func(xs: np.ndarray) -> np.ndarray:
                out = np.zeros((1, np.size(xs)))
                if active:
                    out[0] = coef * np.sin(k * (np.asarray(xs) - lo))
                return out
            return func

        return cls.from_functions(
            geometry, operator.m,
            make(side == SIDE_MINUS), make(side == SIDE_PLUS),
            n=n, label=f"sine(side={side}, mode={mode}, k={k_multiple}*pi/len)",
            modes=(mode,),
        )

    @classmethod
    def from_csv_rows(cls, geometry: CylinderGeometry, m: int, rows) -> "ModalForcing":
        """Build from (x, mode_index, value, side) records.

        Every (side, x) pair must carry all m mode values; the x-grids per
        side must agree in size.
        """
        per_side: dict[str, dict[float, np.ndarray]] = {SIDE_MINUS: {}, SIDE_PLUS: {}}
        for x, mode, value, side in rows:
            check_side(side)
            mode = int(mode)
            if not 0 <= mode < m:
                raise DimensionMismatchError(f"mode index {mode} outside 0..{m - 1}")
            col = per_side[side].setdefault(float(x), np.full(m, np.nan))
            col[mode] = float(value)
        grids, samples = {}, {}
        for side, cols in per_side.items():
            if not cols:
                raise InvalidGeometryError(f"no forcing rows for side {side!r}")
            xs = np.array(sorted(cols))
            mat = np.stack([cols[x] for x in xs], axis=1)
            if np.any(np.isnan(mat)):
                raise DimensionMismatchError(
                    f"incomplete mode values in forcing rows for side {side!r}"
                )
            grids[side], samples[side] = xs, mat
        return cls(geometry, grids[SIDE_MINUS], grids[SIDE_PLUS],
                   samples[SIDE_MINUS], samples[SIDE_PLUS], label="csv")


@dataclass(frozen=True)
class TransmissionProblem:
    """Full problem bundle: operator, geometry, diffusivities, data."""

    operator: SectionOperator
    geometry: CylinderGeometry
    k_minus: float
    k_plus: float
    forcing: ModalForcing
    boundary: BoundaryData

    def __post_init__(self):
        if not (0.0 < self.k_minus < np.inf and 0.0 < self.k_plus < np.inf):
            raise InvalidGeometryError(
                f"diffusivities must be positive and finite, got {self.k_minus}, {self.k_plus}"
            )
        if self.boundary.m != self.operator.m or self.forcing.m != self.operator.m:
            raise DimensionMismatchError(
                "boundary/forcing dimension does not match the section operator"
            )

"""Problem-specification types: geometry, boundary data, modal forcing.

These carry and check the data of the two-interval transmission problem
(and read the forcing-CSV format) independently of any solution method;
the representation-formula solver and the FD oracle both build a ``TransmissionProblem``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._checks import is_integer
from ._spline import CubicSpline
from .errors import DimensionMismatchError, InvalidGeometryError, ResolutionError
from .section_operator import SectionOperator

SIDE_MINUS = "minus"
SIDE_PLUS = "plus"
SIDES = (SIDE_MINUS, SIDE_PLUS)
FORCING_CSV_FIELDS = ("x", "mode_index", "value", "side")

# Intervals shorter than this are rejected outright: the lengths act as
# semigroup times, and near-zero lengths are a modeling error, not a regime.
MIN_INTERVAL = 1e-8

# A forcing side's values: an x-array to the (len(modes), len(x)) declared rows.
Resampler = Callable[[np.ndarray], np.ndarray]


def check_side(side: str) -> str:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    return side


def check_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer (a bool is not)."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_grid(n_x, minimum: int, name: str = "n_x") -> None:
    """The grid gate: ValueError unless ``n_x`` is an integer, ResolutionError below ``minimum``."""
    check_integer(name, n_x)
    if n_x < minimum:
        raise ResolutionError(f"{name} >= {minimum} needed, got {n_x}")


def check_diffusivities(k_minus: float, k_plus: float) -> None:
    if not (0.0 < k_minus < np.inf and 0.0 < k_plus < np.inf):
        raise InvalidGeometryError(
            f"diffusivities must be positive and finite, got {k_minus}, {k_plus}"
        )


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


def check_modes(name: str, modes, m: int) -> np.ndarray:
    """The one gate of mode indices: distinct integers (not bools) in 0..m-1, as an index array.

    The indices keep their order; else DimensionMismatchError, labelled ``name``. Checked by
    hand: ``np.unique`` imports ``numpy.ma`` on its first call, 15 ms of a cold command-line run.
    """
    rows = np.asarray(modes)
    if (rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu")
            or (not isinstance(modes, np.ndarray)
                and any(isinstance(j, (bool, np.bool_)) for j in modes))):
        raise DimensionMismatchError(f"{name} must be a vector of integer mode indices")
    order = np.sort(rows)
    if rows.size and not (0 <= order[0] and order[-1] < m):
        raise DimensionMismatchError(f"{name} span {order[0]}..{order[-1]}, outside 0..{m - 1}")
    if np.any(order[1:] == order[:-1]):
        raise DimensionMismatchError(f"{name} must be distinct, got a repeated mode in {order}")
    return rows.astype(np.intp)


@dataclass(frozen=True)
class ModalForcing:
    """Per-mode forcing in the eigenbasis of the section operator.

    ``modes`` are the rows that may be nonzero, in the order of the
    resamplers' rows; every other row is zero everywhere. Each side has an
    optional resampler (``func_minus`` / ``func_plus``) mapping an x-array
    to the (len(modes), len(x)) values of those rows; a side without one is
    identically zero. A resampler is evaluated pointwise (its value at x
    does not depend on the other points of the call), and
    ``sample_modes`` checks every resampled value.
    """

    geometry: CylinderGeometry
    m: int
    modes: Sequence[int]
    func_minus: Optional[Resampler] = None
    func_plus: Optional[Resampler] = None

    def __post_init__(self):
        object.__setattr__(self, "modes", check_modes("forcing modes", self.modes, self.m))

    def _func(self, side: str):
        return self.func_minus if check_side(side) == SIDE_MINUS else self.func_plus

    def vanishes(self, side: str) -> bool:
        """True for a side without a resampler: its forcing is zero everywhere."""
        return self._func(side) is None

    def sample_modes(self, side: str, xs: np.ndarray) -> np.ndarray:
        """Values of the declared rows ``modes`` at the points ``xs``, shape (len(modes), len(xs)).

        Zeros on a side without a resampler. Raises DimensionMismatchError
        unless the values are finite and shaped so.
        """
        func = self._func(side)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        vals = np.zeros((self.modes.size, xs.size)) if func is None else func(xs)
        return _checked_rows(vals, self.modes.size, xs.size)

    def sample(self, side: str, xs: np.ndarray) -> np.ndarray:
        """All m rows at the points ``xs``, shape (m, len(xs)): ``sample_modes`` scattered."""
        rows = self.sample_modes(side, xs)
        out = np.zeros((self.m, rows.shape[1]))
        out[self.modes] = rows
        return out

    @classmethod
    def zero(cls, m: int, geometry: CylinderGeometry) -> "ModalForcing":
        return cls(geometry, m, ())

    @classmethod
    def from_functions(
        cls,
        geometry: CylinderGeometry,
        m: int,
        func_minus: Optional[Resampler],
        func_plus: Optional[Resampler],
        modes: Optional[Sequence[int]] = None,
    ) -> "ModalForcing":
        """Forcing from exact resamplers of the rows ``modes`` (all m rows by default).

        Each resampler maps an x-array to its (len(modes), len(x)) values;
        None makes its side zero. Each is checked once here, on 33 points
        of its interval, so a wrong shape or a non-finite value surfaces
        at construction.
        """
        forcing = cls(geometry, m, np.arange(m) if modes is None else modes,
                      func_minus, func_plus)
        for side in SIDES:
            forcing.sample_modes(side, geometry.grid(side, 33))
        return forcing

    @classmethod
    def sine(
        cls,
        operator: SectionOperator,
        geometry: CylinderGeometry,
        side: str,
        mode: int,
        k_multiple: int = 1,
        amplitude: float = 1.0,
    ) -> "ModalForcing":
        """Closed-form test forcing whose particular solution is a sine.

        On the chosen interval and mode with eigenvalue mu, the forcing
        amp * (k^2 - mu)^2 sin(k (x - lo)) with k = k_multiple * pi / len
        makes F(x) = amp * sin(k (x - lo)) the exact particular solution
        (its second derivative also vanishes at both ends). The other
        side has no resampler.
        """
        lo, hi = geometry.interval(side)
        k = k_multiple * np.pi / (hi - lo)

        def func(xs: np.ndarray) -> np.ndarray:  # first called after the mode gate of the forcing
            coef = amplitude * (k**2 - operator.eigenvalues[mode]) ** 2
            return coef * np.sin(k * (np.asarray(xs) - lo))[None, :]

        funcs = (func, None) if side == SIDE_MINUS else (None, func)
        return cls.from_functions(geometry, operator.m, *funcs, modes=(mode,))

    @classmethod
    def from_csv_rows(cls, geometry: CylinderGeometry, m: int, rows) -> "ModalForcing":
        """Build from (x, mode_index, value, side) records.

        Every (side, x) pair must carry each of the m modes once, with a
        finite value, and the x-grids of the two sides must agree in size
        and cover their intervals. The declared modes are the rows nonzero on either side;
        each side with a nonzero value is resampled by a cubic spline of
        its table on those rows, and an all-zero side gets no resampler.
        """
        per_side: dict[str, dict[float, list]] = {SIDE_MINUS: {}, SIDE_PLUS: {}}
        for x, mode, value, side in rows:
            x, value = float(x), float(value)
            if not (math.isfinite(x) and math.isfinite(value)):
                raise DimensionMismatchError(f"forcing samples must be finite, got {x}, {value}")
            per_side[check_side(side)].setdefault(x, []).append((mode, value))
        tables = {}
        for side, cols in per_side.items():
            if not cols:
                raise InvalidGeometryError(f"no forcing rows for side {side!r}")
            xs = sorted(cols)
            lo, hi = geometry.interval(side)
            tol = 1e-9 * (hi - lo)
            if xs[0] > lo + tol or xs[-1] < hi - tol:
                raise InvalidGeometryError(f"forcing grid on side {side!r} must cover [{lo}, {hi}]")
            mat = np.empty((m, len(xs)))
            for i, x in enumerate(xs):
                indices, values = zip(*cols[x])
                indices = check_modes(f"forcing rows at {side} x = {x!r}", indices, m)
                if indices.size != m:
                    raise DimensionMismatchError(f"incomplete forcing rows at {side} x = {x!r}")
                mat[indices, i] = values
            tables[side] = np.array(xs), mat
        (grid_m, vals_m), (grid_p, vals_p) = tables.values()
        if grid_m.size != grid_p.size:
            raise DimensionMismatchError(
                f"sample counts differ between intervals: {grid_m.size} vs {grid_p.size}"
            )
        modes = np.flatnonzero(np.any(vals_m, axis=1) | np.any(vals_p, axis=1))
        splines = [CubicSpline(grid, vals[modes]) if np.any(vals) else None
                   for grid, vals in tables.values()]
        return cls(geometry, m, modes, *splines)


def read_forcing_csv(path) -> list:
    """The (x, mode_index, value, side) records of a forcing-CSV file, for ``from_csv_rows``.

    The header names the ``FORCING_CSV_FIELDS`` in any order, and every
    further row holds exactly four fields; else ValueError.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if sorted(reader.fieldnames or ()) != sorted(FORCING_CSV_FIELDS):
            raise ValueError(f"header must name {FORCING_CSV_FIELDS}, got {reader.fieldnames}")
        rows = []
        for rec in reader:
            if None in rec or None in rec.values():
                raise ValueError(f"row {reader.line_num} does not hold exactly 4 fields")
            rows.append((float(rec["x"]), int(rec["mode_index"]), float(rec["value"]),
                         rec["side"].strip()))
    return rows


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
        check_diffusivities(self.k_minus, self.k_plus)
        if self.boundary.m != self.operator.m or self.forcing.m != self.operator.m:
            raise DimensionMismatchError(
                "boundary/forcing dimension does not match the section operator"
            )
        if self.forcing.geometry != self.geometry:
            raise InvalidGeometryError(
                f"forcing built on {self.forcing.geometry}, not on the problem's {self.geometry}"
            )

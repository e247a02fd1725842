"""The in-house not-a-knot spline against scipy.interpolate.CubicSpline."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline as ScipySpline
from scipy.linalg import solve_banded

from bitrans._spline import CubicSpline, solve_tridiagonal


def _grid(n: int, kind: str, rng) -> np.ndarray:
    if kind == "uniform":
        return np.linspace(-0.7, 1.3, n)
    while True:
        x = np.sort(rng.uniform(-0.7, 1.3, n))
        if np.all(np.diff(x) > 1e-3 / n):
            return x


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("kind", ["uniform", "random"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 129, 2049])
def test_spline_matches_scipy_not_a_knot(n, kind, rows):
    # n = 2 is scipy's chord and n = 3 its parabola; larger n the banded system.
    rng = np.random.default_rng(n * 10 + rows)
    x = _grid(n, kind, rng)
    y = rng.normal(size=(rows, n)) * np.exp(rng.normal(size=(rows, 1)))
    points = np.concatenate([x, [x[0], x[-1]], rng.uniform(x[0], x[-1], 200)])
    ours, ref = CubicSpline(x, y), ScipySpline(x, y, axis=1)
    for nu in (0, 1):
        got, want = ours(points, nu), ref(points, nu)
        assert got.shape == want.shape == (rows, points.size)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(y)), nu
    # Every node but the last starts its interval, where the cubic is y itself.
    assert np.array_equal(ours(x[:-1]), y[:, :-1])


def test_spline_with_zero_rows():
    x = np.linspace(0.0, 1.0, 9)
    spline = CubicSpline(x, np.zeros((0, 9)))
    for nu in (0, 1):
        assert spline(np.array([0.0, 0.3, 1.0]), nu).shape == (0, 3)


def test_spline_rejects_second_derivative():
    spline = CubicSpline(np.linspace(0.0, 1.0, 5), np.ones((1, 5)))
    with pytest.raises(ValueError):
        spline(np.array([0.5]), 2)


@pytest.mark.parametrize("columns", [None, 1, 5], ids=["1-D", "one-column", "five-columns"])
@pytest.mark.parametrize("n", [2, 3, 17, 2049])
def test_tridiagonal_sweep_gives_scipy_gtsv_bits(n, columns):
    # Random bands in which a third of the rows need an interchange
    # (|dl| > |d|), plus a diagonally dominant system like the spline's.
    rng = np.random.default_rng(n + (columns or 0))
    ab = rng.normal(size=(3, n))
    swap = rng.random(n) < 1 / 3
    swap[0] = True  # the first elimination step interchanges for certain
    ab[2, swap] *= 1e3
    assert abs(ab[2, 0]) > abs(ab[1, 0])
    dominant = ab.copy()
    dominant[1] = np.abs(dominant).sum(axis=0) + 1.0
    b = rng.normal(size=(n,) if columns is None else (n, columns))
    for bands in (ab, dominant):
        before = (bands.copy(), b.copy())
        got = solve_tridiagonal(bands, b)
        assert got.shape == b.shape
        assert np.array_equal(got, solve_banded((1, 1), bands, b))
        assert np.array_equal(bands, before[0]) and np.array_equal(b, before[1])

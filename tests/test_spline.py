"""The in-house not-a-knot spline against scipy.interpolate.CubicSpline."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline as ScipySpline

from bitrans._spline import CubicSpline


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

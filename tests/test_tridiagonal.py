"""The package's one tridiagonal elimination against LAPACK gtsv (scipy.linalg.solve_banded)."""

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from bitrans._tridiagonal import factor_banded, solve_banded as sweep
from bitrans.errors import AnomalyError


def _gtsv(ab, b):
    return solve_banded((1, 1), ab, b)


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
    rhs = (n,) if columns is None else (n, columns)
    b = rng.normal(size=rhs)
    for bands in (ab, dominant):
        before = (bands.copy(), b.copy())
        got = sweep(factor_banded(bands), b)
        assert got.shape == b.shape
        assert np.array_equal(got, _gtsv(bands, b))
        assert np.array_equal(bands, before[0]) and np.array_equal(b, before[1])

    # A batch along a trailing axis, each system against its own gtsv call:
    # the two above (interchanges in one system only), two zero-coupled
    # blocks, and a shorter system padded with identity rows.
    cut = n - n // 2
    blocks = ab[:, ::-1].copy()
    blocks[0, cut] = blocks[2, cut - 1] = 0.0
    padded = ab.copy()
    padded[:, cut:] = [[0.0], [1.0], [0.0]]
    padded[2, cut - 1] = 0.0
    batch = np.stack([ab, dominant, blocks, padded], axis=-1)
    bs = rng.normal(size=rhs + (4,))
    bs[cut:, ..., 3] = 0.0
    lu = factor_banded(batch)
    assert lu[0].shape == (n, 4)
    got = sweep(lu, bs)
    assert got.shape == bs.shape
    for k in range(4):
        assert np.array_equal(got[..., k], _gtsv(batch[..., k], bs[..., k])), k
    # A block or a padded system eliminates exactly as it would alone.
    for rows in (slice(0, cut), slice(cut, n)):
        assert np.array_equal(got[rows, ..., 2], _gtsv(blocks[:, rows], bs[rows, ..., 2]))
    assert np.array_equal(got[:cut, ..., 3], _gtsv(padded[:, :cut], bs[:cut, ..., 3]))
    assert not got[cut:, ..., 3].any()


@pytest.mark.parametrize("row", [0, 3, 5])
def test_zero_pivot_raises_where_gtsv_reports_it(row):
    # gtsv stops with info > 0 at an exactly zero pivot; the sweep raises
    # AnomalyError there, whichever system of a batch is singular. A zero
    # column stops the elimination at its row, and a trailing rank-one
    # block [[1, 1], [1, 1]] leaves a zero last pivot.
    rng = np.random.default_rng(row)
    batch = rng.normal(size=(3, 6, 3))
    batch[1] = np.abs(batch).sum(axis=0) + 1.0
    singular = batch[..., 1]
    if row < 5:
        singular[1, row] = singular[2, row] = 0.0
        if row:
            singular[0, row] = 0.0  # keeps the column zero after the previous step
    else:
        singular[:, 4:] = [[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
        singular[0, 4] = 0.0
    with pytest.raises(LinAlgError):
        _gtsv(singular, np.ones(6))
    with pytest.raises(AnomalyError, match=f"zero pivot in row {row} of 6"):
        factor_banded(batch)
    factor_banded(batch[..., ::2])  # the other two systems are regular

"""Batched tridiagonal solves by Gaussian elimination with partial pivoting.

Every tridiagonal system in the package goes through this one
elimination: the particular part's ultraspherical stages
(``subproblem``), the spline's node slopes (``_spline``) and the
finite-difference oracle's interior sweeps (``oracle``). It runs in
LAPACK dgtsv's order of operations (dgttrf and dgttrs do the same
arithmetic), the routine behind ``scipy.linalg.solve_banded((1, 1))``,
so each system of a batch gets that call's bits, up to the sign of an
exact zero. The loops run over the n rows in Python and are vectorized
across the batch.
"""

from __future__ import annotations

import numpy as np

from .errors import AnomalyError


def factor_banded(ab) -> tuple:
    """LU factors of tridiagonal A in LAPACK band storage, ``ab`` (3, n, *batch).

    ab[0, 1:] is the superdiagonal, ab[1] the diagonal and ab[2, :-1] the
    subdiagonal; ab[0, 0] and ab[2, -1] are not read. Each system pivots
    on its own: step i interchanges rows i and i + 1 where the
    subdiagonal entry is larger in magnitude than the current pivot.
    Returns (pivots, upper, multipliers, swaps, fill) for
    ``solve_banded``: U's diagonal (n, *batch), then per step i U's
    superdiagonal entry and the multiplier, and, only at steps where
    some system interchanged, its mask (``swaps``) and U's second
    superdiagonal entry (``fill``), keyed by i. Raises ``AnomalyError``
    on an exactly zero pivot, where gtsv returns info > 0: the matrix is
    singular.
    """
    ab = np.asarray(ab, dtype=float)
    n = ab.shape[1]
    # Rows as lists: an update replaces a row and never writes into ``ab``.
    d, du, dl, dl_abs = list(ab[1]), list(ab[0, 1:]), list(ab[2, :-1]), list(np.abs(ab[2, :-1]))
    fact, swaps, fill = [], {}, {}
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero pivot raises below
        for i in range(n - 1):
            swap = dl_abs[i] > abs(d[i])
            if not np.count_nonzero(swap):
                fact.append(dl[i] / d[i])
                d[i + 1] = d[i + 1] - fact[i] * du[i]
                continue
            pivot, top = np.where(swap, dl[i], d[i]), np.where(swap, d[i + 1], du[i])
            fact.append(np.where(swap, d[i], dl[i]) / pivot)
            d[i + 1] = np.where(swap, du[i], d[i + 1]) - fact[i] * top
            d[i], du[i], swaps[i] = pivot, top, swap  # the pivot row: row i + 1 where swapped
            if i < n - 2:
                fill[i] = np.where(swap, du[i + 1], 0.0)
                du[i + 1] = np.where(swap, -fact[i] * fill[i], du[i + 1])
    pivots = np.array(d)
    zero = np.flatnonzero(~pivots.reshape(n, -1).all(axis=1))
    if zero.size:
        raise AnomalyError(f"singular tridiagonal system: zero pivot in row {zero[0]} of {n}")
    return pivots, du, fact, swaps, fill


def solve_banded(lu: tuple, b) -> np.ndarray:
    """x with A x = b, for A factored by ``factor_banded``; ``b`` is not changed.

    ``b`` is (n, ...), and each row b[i] broadcasts against the batch
    shape of the factors, so a batch of systems can take several
    right-hand sides each. A step where no system interchanged skips the
    second superdiagonal, which is zero there.
    """
    d, du, fact, swaps, fill = lu
    x = list(np.array(b, dtype=float, order="C"))  # contiguous rows
    for i, f in enumerate(fact):
        if i in swaps:
            top = np.where(swaps[i], x[i + 1], x[i])
            x[i + 1] = np.where(swaps[i], x[i], x[i + 1]) - f * top
            x[i] = top
        else:
            x[i + 1] = x[i + 1] - f * x[i]
    x[-1] = x[-1] / d[-1]
    for i in range(len(x) - 2, -1, -1):
        rest = x[i] - du[i] * x[i + 1]
        if i in fill:
            rest = rest - fill[i] * x[i + 2]
        x[i] = rest / d[i]
    return np.array(x)

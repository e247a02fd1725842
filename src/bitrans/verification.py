"""Per-mode fundamental-system reference, for verification only.

Per mode j the problem is the ODE (d^2 - g_j^2)^2 u = f_j on two intervals
with eight conditions. In the end-localized fundamental system E1 = e^{g s1},
s1 E1, E2 = e^{g s2}, s2 E2 of an interval [lo, hi] (s1 = x - lo,
s2 = hi - x; Coddington & Levinson 1955, ch. 3) it is one 8 x 8 system per
mode, which uses none of the symbols, the end map or Lambda. Rows are
equilibrated (Higham 2002, sec. 7.3) and all modes are one batched solve:
O(m), on the ``both`` route and in ``verify`` only. The same four end-row
tables also give each interval's interface symbols and one-sided
determinant, and from them the determinant. All of it depends on the
operators alone, so ``fundamental_system`` builds it once per solver, as
one ``FundamentalSystem``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AnomalyError
from .problem import SIDE_MINUS, SIDE_PLUS


def _end_rows(ops, at_lo: bool) -> np.ndarray:
    """Rows of u, u', t2 = u'' - g^2 u, t3 = u''' - g^2 u' at one interval end, (m, 4, 4).

    With d^k (s1 E1) = (g^k s1 + k g^{k-1}) E1, d^k (s2 E2) = (-1)^k (g^k s2 + k g^{k-1}) E2,
    E1 and E2 cancel from the flux rows exactly."""
    g, near, zero = ops.g, np.ones_like(ops.g), np.zeros_like(ops.g)
    ends = (0.0, near), (ops.delta, ops.e)
    (s1, e1), (s2, e2) = ends if at_lo else ends[::-1]
    return np.stack([np.stack(row, axis=-1) for row in (
        (e1, s1 * e1, e2, s2 * e2),
        (g * e1, (g * s1 + 1.0) * e1, -g * e2, -(g * s2 + 1.0) * e2),
        (zero, 2.0 * g * e1, zero, 2.0 * g * e2),
        (zero, 2.0 * g**2 * e1, zero, -2.0 * g**2 * e2))], axis=1)


def _equilibrate(a: np.ndarray) -> tuple:
    """Each row of the batched a over its largest entry: (scaled a, the (m, k, 1) scales)."""
    scale = np.max(np.abs(a), axis=2, keepdims=True)
    scale[scale == 0.0] = 1.0
    return a / scale, scale


def _solve(a: np.ndarray, scale: np.ndarray, b: np.ndarray, what: str):
    """Batched solve of the equilibrated a x = b / scale; returns x and the scaled residual."""
    b = b / scale
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise AnomalyError(f"singular per-mode {what}: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise AnomalyError(f"per-mode {what} has a non-finite solution")
    return x, float(np.linalg.norm(a @ x - b) / (1.0 + np.linalg.norm(b)))


def _one_sided(ops, lo: np.ndarray, hi: np.ndarray, side: str) -> np.ndarray:
    """f1, f2, f2, f3 and det (= -u_delta v_delta) of the 4 x 4 system u, u' at both ends.

    ``lo`` and ``hi`` are the interval's two ``_end_rows`` tables. Unit interface data
    (psi1, psi2) gives, plus side, t3(1, 0) = -g^3 f1, t3(0, 1) = g^2 f2,
    t2(1, 0) = -g^2 f2, t2(0, 1) = g f3; the minus side flips f1 and f3."""
    a = np.concatenate([lo[:, :2], hi[:, :2]], axis=1)
    at_gamma, first = (hi, 2) if side == SIDE_MINUS else (lo, 0)
    unit = np.zeros((ops.m, 4, 2))
    unit[:, first, 0] = unit[:, first + 1, 1] = 1.0
    t2, t3 = np.moveaxis(at_gamma[:, 2:] @ _solve(*_equilibrate(a), unit, "one-sided system")[0],
                         1, 0)
    g, sign = ops.g, (1.0 if side == SIDE_MINUS else -1.0)
    return np.stack([sign * t3[:, 0] / g**3, t3[:, 1] / g**2, -t2[:, 0] / g**2,
                     -sign * t2[:, 1] / g, np.linalg.det(a)])


class FundamentalSystem(NamedTuple):
    """The fundamental-system reference of one operator set, per mode.

    ``matrix`` holds the equilibrated 8 x 8 interface matrices and ``scale`` their row
    scales, (m, 8, 1); ``end_rows`` the four ``_end_rows`` tables (minus at a and gamma,
    plus at gamma and b); ``minus``/``plus`` each interval's read-offs f1, f2 (from t3),
    f2 (from t2), f3 and det = -u v (``_one_sided``); ``det_modal`` is -g (p1s p3s - p2d^2)
    formed from them. The end rows and read-offs depend on the interval symbols alone."""

    matrix: np.ndarray
    scale: np.ndarray
    end_rows: tuple
    minus: np.ndarray
    plus: np.ndarray
    det_modal: np.ndarray


def fundamental_system(operators) -> FundamentalSystem:
    """The fundamental-system reference of every mode, built once per operator set, O(m).

    The 8 x 8 system of ``fundamental_solve`` has four basis coefficients per side as
    unknowns, and as rows u, u' at a and at b and the jumps of u, u', k t2 and k t3 at
    gamma. Each interval's read-offs come from its own two end-row tables."""
    minus, plus, km, kp = operators.minus, operators.plus, operators.k_minus, operators.k_plus
    rows = tuple(_end_rows(ops, at_lo) for ops in (minus, plus) for at_lo in (True, False))
    read_m = _one_sided(minus, *rows[:2], SIDE_MINUS)
    read_p = _one_sided(plus, *rows[2:], SIDE_PLUS)
    for table in (*rows, read_m, read_p):
        table.flags.writeable = False
    m_a, m_g, p_g, p_b = rows
    a = np.zeros((minus.m, 8, 8))
    a[:, 0:2, :4], a[:, 2:4, 4:] = m_a[:, :2], p_b[:, :2]
    a[:, 4:6, :4], a[:, 4:6, 4:] = m_g[:, :2], -p_g[:, :2]
    a[:, 6:8, :4], a[:, 6:8, 4:] = km * m_g[:, 2:], -kp * p_g[:, 2:]
    p1s, p3s = kp * read_p[0] + km * read_m[0], kp * read_p[3] + km * read_m[3]
    p2d = kp * read_p[1] - km * read_m[1]
    return FundamentalSystem(*_equilibrate(a), rows, read_m, read_p,
                             -minus.g * (p1s * p3s - p2d**2))


def fundamental_solve(operators, phi_hat, part_minus, part_plus, system=None):
    """Modal interface pair and scaled residual (psi1_hat, psi2_hat, residual) of the 8 x 8 solves.

    ``system`` is ``fundamental_system(operators)``, formed here when None. ``phi_hat`` is
    the modal boundary data (phi1-, phi2-, phi1+, phi2+); the particular parts
    (F = F'' = 0 at every end) enter through F'(a), F'(gamma+-), F'''(gamma+-) and F'(b),
    and psi2 = h-'(gamma) + F-'(gamma)."""
    if system is None:
        system = fundamental_system(operators)
    minus, km, kp = operators.minus, operators.k_minus, operators.k_plus
    g2, zero = minus.g**2, np.zeros(minus.m)
    phi1m, phi2m, phi1p, phi2p = phi_hat
    fpm, fpp = part_minus.fprime_right, part_plus.fprime_left
    b = np.stack([phi1m, phi2m - part_minus.fprime_left, phi1p, phi2p - part_plus.fprime_right,
                  zero, fpp - fpm, zero,
                  kp * (part_plus.f3_left - g2 * fpp) - km * (part_minus.f3_right - g2 * fpm)],
                 axis=1)
    x, residual = _solve(system.matrix, system.scale, b[..., None], "interface system")
    psi = system.end_rows[1][:, :2] @ x[:, :4]  # u, u' at gamma, minus side
    return psi[:, 0, 0], psi[:, 1, 0] + fpm, residual


def spectral_mapping_gap(operators, reference: FundamentalSystem) -> float:
    """Worst max_j |read - symbol| / max_j |symbol| over f_delta,1..3 and -u_delta v_delta.

    ``reference`` is the operators' ``fundamental_system``; its ``minus`` and ``plus``
    read-offs are compared with each interval's symbols."""
    worst = 0.0
    for ops, read in ((operators.minus, reference.minus), (operators.plus, reference.plus)):
        for got, want in zip(read, (ops.f[0], ops.f[1], ops.f[1], ops.f[2], -ops.u * ops.v)):
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    return worst

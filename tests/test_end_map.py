"""The end map and the flux closed form against the per-side formulas they replace.

Every representation coefficient is a sum of end contributions
(``_end_coefficients``, both ends of an interval in one pass), and the
interface sources are flux jumps (``interface_fluxes``, both intervals in
one pass), read by the same closed form as the report's flux terms. The
references below are the hand-written per-side formulas of phi~, the
coefficients and S1, S2, S-check, and the closed forms of the end values
and flux traces, kept verbatim so the two forms are compared on random
data with nonzero particular traces over the whole range
1e-2 <= delta |g| <= 1e2.
"""

import numpy as np
import pytest

from bitrans import (
    SIDES,
    BoundaryData,
    CylinderGeometry,
    SectionOperator,
    alphas_minus,
    alphas_plus,
    assemble_sources,
    assemble_transmission_operators,
    build_dirichlet_laplacian_1d,
    phi_tilde_minus,
    phi_tilde_plus,
    solve_transmission,
)
from bitrans.problem import SIDE_MINUS, SIDE_PLUS
from bitrans.subproblem import end_values, interface_fluxes


def ref_phi_tilde_minus(ops, phi1, phi2, fpa, fpg):
    c, e, u, v = ops.delta, ops.e, ops.u, ops.v
    mphi1 = ops.g * phi1
    pt1 = 0.5 * (phi1 + e * (phi1 + c * (mphi1 + phi2 - fpa - fpg))) / u
    pt2 = -0.5 * ((mphi1 - phi2 + fpa + fpg) + e * (mphi1 + phi2 - fpa - fpg)) / u
    pt3 = 0.5 * (phi1 - e * (phi1 + c * (mphi1 + phi2 - fpa + fpg))) / v
    pt4 = -0.5 * ((mphi1 - phi2 + fpa - fpg) - e * (mphi1 + phi2 - fpa + fpg)) / v
    return pt1, pt2, pt3, pt4


def ref_phi_tilde_plus(ops, phi1, phi2, fpg, fpb):
    d, e, u, v = ops.delta, ops.e, ops.u, ops.v
    mphi1 = ops.g * phi1
    pt1 = -0.5 * (phi1 + e * (phi1 + d * (mphi1 - phi2 + fpg + fpb))) / u
    pt2 = 0.5 * ((mphi1 + phi2 - fpg - fpb) + e * (mphi1 - phi2 + fpg + fpb)) / u
    pt3 = 0.5 * (phi1 - e * (phi1 + d * (mphi1 - phi2 - fpg + fpb))) / v
    pt4 = -0.5 * ((mphi1 + phi2 + fpg - fpb) - e * (mphi1 - phi2 - fpg + fpb)) / v
    return pt1, pt2, pt3, pt4


def ref_alphas_minus(ops, psi1, psi2, phi_tilde):
    pt1, pt2, pt3, pt4 = phi_tilde
    c, e, u, v = ops.delta, ops.e, ops.u, ops.v
    mpsi1 = ops.g * psi1
    e_psi1, e_psi2, e_mpsi1 = e * psi1, e * psi2, e * mpsi1
    a1 = -0.5 * (psi1 + e_psi1 + c * e_mpsi1 - c * e_psi2) / u + pt1
    a2 = 0.5 * (mpsi1 + e_mpsi1 + psi2 - e_psi2) / u + pt2
    a3 = 0.5 * (psi1 - e_psi1 - c * e_mpsi1 + c * e_psi2) / v + pt3
    a4 = -0.5 * (mpsi1 - e_mpsi1 + psi2 + e_psi2) / v + pt4
    return a1, a2, a3, a4


def ref_alphas_plus(ops, psi1, psi2, phi_tilde):
    pt1, pt2, pt3, pt4 = phi_tilde
    d, e, u, v = ops.delta, ops.e, ops.u, ops.v
    mpsi1 = ops.g * psi1
    e_psi1, e_psi2, e_mpsi1 = e * psi1, e * psi2, e * mpsi1
    a1 = 0.5 * (psi1 + e_psi1 + d * e_mpsi1 + d * e_psi2) / u + pt1
    a2 = -0.5 * (mpsi1 + e_mpsi1 - psi2 + e_psi2) / u + pt2
    a3 = 0.5 * (psi1 - e_psi1 - d * e_mpsi1 - d * e_psi2) / v + pt3
    a4 = -0.5 * (mpsi1 - e_mpsi1 - psi2 - e_psi2) / v + pt4
    return a1, a2, a3, a4


def ref_sources(tops, phi_tilde_m, phi_tilde_p, fpg_m, f3g_m, fpg_p, f3g_p):
    kp, km = tops.k_plus, tops.k_minus
    ed, ec = tops.plus.e, tops.minus.e
    _, pt2m, _, pt4m = phi_tilde_m
    _, pt2p, _, pt4p = phi_tilde_p
    msq = tops.operator.generator_eigenvalues**2
    s_check = -kp * f3g_p + kp * msq * fpg_p + km * f3g_m - km * msq * fpg_m
    s1 = (2.0 * kp * ((pt2p + pt4p) + ed * (pt2p - pt4p))
          - 2.0 * km * ((pt2m - pt4m) + ec * (pt2m + pt4m))
          - s_check / msq)
    s2 = (2.0 * kp * ((pt2p + pt4p) - ed * (pt2p - pt4p))
          + 2.0 * km * ((pt2m - pt4m) - ec * (pt2m + pt4m)))
    return s1, s2, s_check


def ref_end_values(ops, alphas):
    """u and u' at (left, right) from modal_fields' grouping, with (E1, E2, s1, s2) at each end."""
    g, e, delta = ops.g, ops.e, ops.delta
    a1, a2, a3, a4 = alphas
    big_a, big_b, big_c, big_d = a1 + a3, a2 + a4, a3 - a1, a4 - a2
    ends = []
    for e1, e2, s1, s2 in ((1.0, e, 0.0, delta), (e, 1.0, delta, 0.0)):
        b, d = e1 * big_b, e2 * big_d
        p, n = e1 * big_a + s1 * b, e2 * big_c + s2 * d
        ends.append((p + n, g * (p - n) + (b - d)))
    return ends


def ref_fluxes(ops, side, alphas):
    """t2 and t3 at gamma, F = 0: 2g [(E1 - E2) a2 + (E1 + E2) a4] and 2g^2 [(E1 + E2) a2 + ...]."""
    e1, e2 = (ops.e, 1.0) if side == SIDE_MINUS else (1.0, ops.e)
    g, a2, a4 = ops.g, alphas[1], alphas[3]
    return (2.0 * g * ((e1 - e2) * a2 + (e1 + e2) * a4),
            2.0 * g * g * ((e1 + e2) * a2 + (e1 - e2) * a4))


def _spread_operator(m, delta, rng):
    """Diagonal section operator whose modes put delta |g| across [1e-2, 1e2]."""
    eps = np.logspace(-2, 2, m) if m > 1 else 10.0 ** rng.uniform(-2, 2, 1)
    return SectionOperator(np.sort(-(eps / delta) ** 2), np.eye(m))


def _largest_term(ops, *data):
    """Per mode, a bound on every term of the per-side formulas: each term is
    1/2 e^i (1, delta) (1, g) x / (u or v) for an input x, with e <= 1."""
    reach = (1.0 + ops.delta) * (1.0 + np.abs(ops.g))
    return reach * np.max(np.abs(data), axis=0) / np.minimum(ops.u, ops.v)


@pytest.mark.parametrize("spread_side", [SIDE_MINUS, SIDE_PLUS])
@pytest.mark.parametrize("m", [1, 8, 64, 2048])
def test_end_map_reproduces_the_per_side_formulas(m, spread_side):
    # The spectrum puts delta |g| across [1e-2, 1e2] on ``spread_side``.
    # phi~, the coefficients, the sources, the end values and the flux
    # traces each match the per-side formulas within 1e-13 of the largest
    # term a formula adds.
    rng = np.random.default_rng(100 + m)
    c, d = 0.7, 1.9
    op = _spread_operator(m, c if spread_side == SIDE_MINUS else d, rng)
    tops = assemble_transmission_operators(op, CylinderGeometry(-c, 0.0, d), 1.3, 0.4)
    phi1_m, phi2_m, phi1_p, phi2_p, fpa, fpg_m, fpg_p, fpb, psi1, psi2 = rng.normal(size=(10, m))
    f3g_m, f3g_p = rng.normal(size=(2, m)) * op.eigenvalues
    cases = (
        (tops.minus, phi_tilde_minus, ref_phi_tilde_minus, alphas_minus, ref_alphas_minus,
         (phi1_m, phi2_m, fpa, fpg_m)),
        (tops.plus, phi_tilde_plus, ref_phi_tilde_plus, alphas_plus, ref_alphas_plus,
         (phi1_p, phi2_p, fpg_p, fpb)),
    )
    pts, als = [], []
    for ops, phi_tilde, ref_phi_tilde, alphas, ref_alphas, data in cases:
        pt = phi_tilde(ops, *data)
        scale = _largest_term(ops, *data)
        for new, ref in zip(pt, ref_phi_tilde(ops, *data)):
            assert np.all(np.abs(new - ref) <= 1e-13 * scale)
        scale_a = scale + _largest_term(ops, psi1, psi2)
        al = alphas(ops, psi1, psi2, pt)
        for new, ref in zip(al, ref_alphas(ops, psi1, psi2, pt)):
            assert np.all(np.abs(new - ref) <= 1e-13 * scale_a)
        pts.append(pt)
        als.append(al)
        # u, u' at both ends, t2 / 2|g| and t3 / 2g^2 at gamma are sums of
        # terms at most 2 (1 + delta)(1 + |g|) |a_i|, within a factor 2 of
        # ``_largest_term`` of the coefficients.
        terms = _largest_term(ops, *al)
        for new, ref in zip(end_values(ops, al), ref_end_values(ops, al)):
            for new_x, ref_x in zip(new, ref):
                assert np.all(np.abs(new_x - ref_x) <= 1e-13 * terms)

    zero = np.zeros((2, m))
    t2, t3 = interface_fluxes(tops.both, np.array([als[0][1], als[1][1]]),
                              np.array([als[0][3], als[1][3]]), zero, zero)
    for row, (side, ops, al) in enumerate(zip(SIDES, (tops.minus, tops.plus), als)):
        ref_t2, ref_t3 = ref_fluxes(ops, side, al)
        g, terms = np.abs(ops.g), _largest_term(ops, *al)
        assert np.all(np.abs(t2[row] - ref_t2) <= 1e-13 * 2.0 * g * terms)
        assert np.all(np.abs(t3[row] - ref_t3) <= 1e-13 * 2.0 * g * g * terms)

    traces = (fpg_m, f3g_m, fpg_p, f3g_p)
    src = assemble_sources(tops, *pts, *traces)
    s1, s2, _ = ref_sources(tops, *pts, *traces)
    g = op.generator_eigenvalues
    k = max(tops.k_minus, tops.k_plus)
    pt_scale = 2.0 * k * np.max(np.abs([pts[0][1], pts[0][3], pts[1][1], pts[1][3]]), axis=0)
    f_scale = k * (np.abs(f3g_m) + np.abs(f3g_p) + g**2 * (np.abs(fpg_m) + np.abs(fpg_p)))
    assert np.all(np.abs(src.s1 - s1) <= 1e-13 * (pt_scale + f_scale / g**2))
    assert np.all(np.abs(src.s2 - s2) <= 1e-13 * pt_scale)


@pytest.mark.parametrize("ks", [(1.0, 3.0), (5.0, 0.2)])
@pytest.mark.parametrize("m", [8, 64, 256])
def test_interface_blocks_are_the_flux_jumps_of_the_interface_end_map(m, ks):
    # Per mode, Lambda_j psi = -([k t3](Q psi) / g^2, [k t2](Q psi) / g), where
    # Q psi is the interface end map on each side (its right end on minus,
    # its left end on plus), t its flux traces and [k t] = k+ t+ - k- t-.
    op = build_dirichlet_laplacian_1d(m, 1.0)
    tops = assemble_transmission_operators(op, CylinderGeometry(-0.7, 0.0, 1.3), *ks)
    g = op.generator_eigenvalues
    rng = np.random.default_rng(m)
    psi1, psi2 = rng.normal(size=(2, m))
    q_m = alphas_minus(tops.minus, psi1, psi2, (0.0,) * 4)
    q_p = alphas_plus(tops.plus, psi1, psi2, (0.0,) * 4)
    zero = np.zeros((2, m))
    t2, t3 = interface_fluxes(tops.both, np.array([q_m[1], q_p[1]]),
                              np.array([q_m[3], q_p[3]]), zero, zero)
    km, kp = ks
    jump2 = kp * t2[1] - km * t2[0]
    jump3 = kp * t3[1] - km * t3[0]
    p1s, p2d, p3s = tops.p1_sum, tops.p2_diff, tops.p3_sum
    rows = ((g * p1s * psi1, -p2d * psi2, -jump3 / g**2),
            (g * p2d * psi1, -p3s * psi2, -jump2 / g))
    for first, second, expected in rows:
        scale = np.abs(first) + np.abs(second)
        assert np.max(np.abs(first + second - expected) / scale) <= 1e-13


def _scaled_exponentials(op, geom, rng):
    """Boundary data and u''' at gamma of u_j = b1 e^{s_j (x - b)} + b2 e^{-s_j (x - a)}.

    The ``modal-sweep`` closed form: no exponent is positive, and u'' = s^2 u
    on both intervals, so t2 and t3 vanish everywhere for any k.
    """
    s = np.sqrt(-op.eigenvalues)
    b1, b2 = rng.standard_normal((2, op.m))

    def field(x, order):
        return op.from_modal(s**order * (b1 * np.exp(s * (x - geom.b))
                                         + (-1.0) ** order * b2 * np.exp(-s * (x - geom.a))))

    data = BoundaryData(field(geom.a, 0), field(geom.a, 1), field(geom.b, 0), field(geom.b, 1))
    return data, field(geom.gamma, 3)


@pytest.mark.parametrize("m", [32, 256])
def test_the_flux_closed_form_keeps_t3_at_gamma_at_rounding(m):
    # On fields with t3 = u''' - M^2 u' = 0, t3 at gamma of the solved
    # coefficients (closed form) reads at most 1.2e-14 (m = 32) and 3.0e-13
    # (m = 256) of max |u'''(gamma)| over seeds 0-3. Sources read through
    # the flux map composed with the data map as one per-mode matrix gave
    # 7.4e-11 and 8.0e-11.
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    for seed in range(4):
        data, u3 = _scaled_exponentials(op, geom, np.random.default_rng(seed))
        sol = solve_transmission(op, geom, 1.0, 3.0, None, data)
        for side, ops in zip(SIDES, (sol.operators.minus, sol.operators.plus)):
            _, t3 = ref_fluxes(ops, side, sol.side(side).alphas)
            assert np.max(np.abs(op.from_modal(t3))) <= 1e-11 * np.max(np.abs(u3)), (seed, side)

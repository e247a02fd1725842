"""The end map and the flux closed form against the per-side formulas they replace.

Every representation coefficient is a sum of end contributions
(``_end_coefficients``, both ends of an interval in one pass), and the
interface sources are flux jumps (``interface_fluxes``, both intervals in
one pass), read by the same closed form as the report's flux terms
(``end_terms``). The references below are the hand-written per-side
formulas of phi~, the coefficients and S1, S2, S-check, and the closed
forms of the end values and flux traces, kept verbatim so the two forms
are compared on random data with nonzero particular traces over the whole range
1e-2 <= delta |g| <= 1e2. They are compared by what the coefficients
mean: the weights of E1, s1 E1, E2 and s2 E2 in
u = E1 (A + s1 B) + E2 (C + s2 D), s1 and s2 the distances from the
left and the right end. The per-side formulas give the coefficients of
E1 - E2, s1 E1 - s2 E2, E1 + E2 and s1 E1 + s2 E2, which ``_weights``
turns into them; the package stores each interval's outer end first,
which ``_left_first`` reorders on the plus interval.
"""

import mpmath
import numpy as np
import pytest

from bitrans import (
    SIDES,
    BoundaryData,
    CylinderGeometry,
    SectionOperator,
    SubproblemSolution,
    alphas_minus,
    alphas_plus,
    assemble_sources,
    assemble_transmission_operators,
    build_dirichlet_laplacian_1d,
    phi_tilde_minus,
    phi_tilde_plus,
    side_symbols,
    solve_transmission,
)
from bitrans.problem import SIDE_MINUS, SIDE_PLUS
from bitrans.subproblem import end_terms, interface_fluxes
from test_verification import _mp_interface


def _weights(a1, a2, a3, a4):
    """(A, B, C, D) of the coefficients of E1 - E2, s1 E1 - s2 E2, E1 + E2, s1 E1 + s2 E2."""
    return a1 + a3, a2 + a4, a3 - a1, a4 - a2


def _left_first(side, weights):
    """Stored weights (outer end, gamma) as the weights of E1, s1 E1, E2, s2 E2, and back."""
    return tuple(weights) if side == SIDE_MINUS else (*weights[2:], *weights[:2])


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


def ref_sources(tops, weights_m, weights_p, fpg_m, f3g_m, fpg_p, f3g_p):
    """S1, S2 and S-check of the weights (A, B, C, D) of phi~ on each side.

    The per-side formulas in the coefficients pt2, pt4 of s1 E1 - s2 E2 and
    s1 E1 + s2 E2, with pt2 + pt4 = B and pt2 - pt4 = -D.
    """
    kp, km = tops.k_plus, tops.k_minus
    ed, ec = tops.plus.e, tops.minus.e
    (_, big_bm, _, big_dm), (_, big_bp, _, big_dp) = weights_m, weights_p
    msq = tops.operator.generator_eigenvalues**2
    s_check = -kp * f3g_p + kp * msq * fpg_p + km * f3g_m - km * msq * fpg_m
    s1 = (2.0 * kp * (big_bp - ed * big_dp)
          - 2.0 * km * (-big_dm + ec * big_bm)
          - s_check / msq)
    s2 = (2.0 * kp * (big_bp + ed * big_dp)
          + 2.0 * km * (-big_dm - ec * big_bm))
    return s1, s2, s_check


def ref_end_values(ops, weights):
    """u and u' at (left, right) of the weights (A, B, C, D), with (E1, E2, s1, s2) at each end."""
    g, e, delta = ops.g, ops.e, ops.delta
    big_a, big_b, big_c, big_d = weights
    ends = []
    for e1, e2, s1, s2 in ((1.0, e, 0.0, delta), (e, 1.0, delta, 0.0)):
        b, d = e1 * big_b, e2 * big_d
        p, n = e1 * big_a + s1 * b, e2 * big_c + s2 * d
        ends.append((p + n, g * (p - n) + (b - d)))
    return ends


def ref_fluxes(ops, side, weights):
    """t2 and t3 at gamma of the weights (A, B, C, D), F = 0: 2g (E1 B + E2 D) and 2g^2 (E1 B - E2 D)."""
    e1, e2 = (ops.e, 1.0) if side == SIDE_MINUS else (1.0, ops.e)
    g, big_b, big_d = ops.g, weights[1], weights[3]
    return 2.0 * g * (e1 * big_b + e2 * big_d), 2.0 * g * g * (e1 * big_b - e2 * big_d)


def _spread_operator(m, delta, rng):
    """Diagonal section operator whose modes put delta |g| across [1e-2, 1e2]."""
    eps = np.logspace(-2, 2, m) if m > 1 else 10.0 ** rng.uniform(-2, 2, 1)
    return SectionOperator(np.sort(-(eps / delta) ** 2), np.eye(m))


def _largest_term(ops, *data):
    """Per mode, a bound on every term of the per-side formulas: each term is
    1/2 e^i (1, delta) (1, g) x / (u or v) for an input x, with e <= 1.
    A weight is a sum of two such terms."""
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
        (SIDE_MINUS, tops.minus, phi_tilde_minus, ref_phi_tilde_minus, alphas_minus,
         ref_alphas_minus, (phi1_m, phi2_m, fpa, fpg_m)),
        (SIDE_PLUS, tops.plus, phi_tilde_plus, ref_phi_tilde_plus, alphas_plus,
         ref_alphas_plus, (phi1_p, phi2_p, fpg_p, fpb)),
    )
    pts, als = [], []
    for side, ops, phi_tilde, ref_phi_tilde, alphas, ref_alphas, data in cases:
        pt = _left_first(side, phi_tilde(ops, *data))
        scale = _largest_term(ops, *data)
        for new, ref in zip(pt, _weights(*ref_phi_tilde(ops, *data))):
            assert np.all(np.abs(new - ref) <= 1e-13 * scale)
        scale_a = scale + _largest_term(ops, psi1, psi2)
        al = _left_first(side, alphas(ops, psi1, psi2, _left_first(side, pt)))
        psi_w = _weights(*ref_alphas(ops, psi1, psi2, (0.0,) * 4))  # the interface end's share
        for new, ref, p in zip(al, psi_w, pt):
            assert np.all(np.abs(new - (ref + p)) <= 1e-13 * scale_a)
        pts.append(pt)
        als.append(al)

    # The end terms of both intervals' solutions with these weights and no
    # particular part. u, u' at both ends, t2 / 2|g| and t3 / 2g^2 at gamma
    # are sums of terms at most (1 + delta)(1 + |g|) times a weight. A
    # weight is a sum of two coefficients of the per-side basis, so half of
    # ``_largest_term`` of the weights is at most that of those
    # coefficients, the bound these sums were held to.
    subs = [SubproblemSolution(side, tops.geometry, op, _left_first(side, al))
            for side, al in zip(SIDES, als)]
    u_left, du_left, u_right, du_right, t2, t3 = end_terms(tops.both, *subs)
    for row, (side, ops, al) in enumerate(zip(SIDES, (tops.minus, tops.plus), als)):
        terms = 0.5 * _largest_term(ops, *al)
        ends = ((u_left[row], du_left[row]), (u_right[row], du_right[row]))
        for new, ref in zip(ends, ref_end_values(ops, al)):
            for new_x, ref_x in zip(new, ref):
                assert np.all(np.abs(new_x - ref_x) <= 1e-13 * terms)
        ref_t2, ref_t3 = ref_fluxes(ops, side, al)
        g = np.abs(ops.g)
        assert np.all(np.abs(t2[row] - ref_t2) <= 1e-13 * 2.0 * g * terms)
        assert np.all(np.abs(t3[row] - ref_t3) <= 1e-13 * 2.0 * g * g * terms)

    traces = (fpg_m, f3g_m, fpg_p, f3g_p)
    src = assemble_sources(tops, *(_left_first(side, pt) for side, pt in zip(SIDES, pts)), *traces)
    s1, s2, _ = ref_sources(tops, *pts, *traces)
    g = op.generator_eigenvalues
    k = max(tops.k_minus, tops.k_plus)
    # k max(|B|, |D|) is at most the per-side terms' 2k max(|pt2|, |pt4|).
    pt_scale = k * np.max(np.abs([pts[0][1], pts[0][3], pts[1][1], pts[1][3]]), axis=0)
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
    t2, t3 = interface_fluxes(tops.both, (q_m, q_p), zero, zero)
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
            _, t3 = ref_fluxes(ops, side, _left_first(side, sol.side(side).alphas))
            assert np.max(np.abs(op.from_modal(t3))) <= 1e-11 * np.max(np.abs(u3)), (seed, side)


def test_the_far_end_weights_keep_their_accuracy_at_large_eps():
    # m = 2048 and delta = 0.15 put eps = delta |g| from 0.47 up to 615
    # (s_0 ~ 4098), where e = e^-eps is 1e-267, still a normal number. An
    # outer-end datum (phi, sigma) gives the far end, gamma, e-small weights
    #   C = [k phi - n w] / uv and D = [-k (g phi - sigma) + e (g phi + sigma) w] / uv
    # (n = e (phi + delta (g phi + sigma)), w = 1 - e^2, k = 2 delta g e).
    # Each matches these forms evaluated at 50 digits on the symbols' own
    # values within 1e-14 of the sum of its terms' sizes. Formed as
    # differences of their shares over 2u and 2v, they are off by up to
    # that whole sum.
    op = build_dirichlet_laplacian_1d(2048, 1.0)
    delta = 0.15
    ops = side_symbols(op, delta)
    phi, sigma = np.random.default_rng(0).standard_normal((2, op.m))
    zero = np.zeros(op.m)
    _, _, big_c, big_d = phi_tilde_minus(ops, phi, sigma, zero, zero)
    assert -delta * ops.g[0] > 600.0 and ops.e[0] > np.finfo(float).tiny
    with mpmath.workdps(50):
        for j in range(op.m):
            g, e, u, v, ph, sg, dl = (mpmath.mpf(float(x)) for x in (
                ops.g[j], ops.e[j], ops.u[j], ops.v[j], phi[j], sigma[j], delta))
            k, w, n = 2 * dl * g * e, 1 - e * e, e * (ph + dl * (g * ph + sg))
            for got, terms in ((big_c[j], (k * ph, -n * w)),
                               (big_d[j], (-k * (g * ph - sg), e * (g * ph + sg) * w))):
                want, size = sum(terms) / (u * v), sum(abs(t) for t in terms) / (u * v)
                assert abs(got - want) <= 1e-14 * size, (j, got, float(want))


def _short_interval_solution(c):
    """m = 8, geometry (-c, 0, 1), k = (1, 3) and normal data: every mode has eps = c |g| < 1 on the minus side."""
    op = build_dirichlet_laplacian_1d(8, 1.0)
    bc = BoundaryData(*np.random.default_rng(0).normal(size=(4, op.m)))
    return op, bc, solve_transmission(op, CylinderGeometry(-c, 0.0, 1.0), 1.0, 3.0, None, bc)


@pytest.mark.parametrize("c, bound", [(1e-3, 1e-9), (1e-5, 1e-5)])
def test_a_short_interval_keeps_its_interface_pair(c, bound):
    # Each mode's pair comes within 3.0e-10 (c = 1e-3) and 3.7e-6 (c = 1e-5)
    # of the 60-digit solve. The end map's w = 1 - e^2 formed as it stands,
    # rather than as (u + v) / 2, gave 8.3e-9 and 1.5e-2.
    op, bc, sol = _short_interval_solution(c)
    phi = op.to_modal(np.stack([bc.phi1_minus, bc.phi2_minus, bc.phi1_plus, bc.phi2_plus]).T)
    for j, g in enumerate(op.generator_eigenvalues):
        want = _mp_interface(g, c, 1.0, 1.0, 3.0, phi[j], (0.0,) * 6)
        got = (sol.interface.psi1_hat[j], sol.interface.psi2_hat[j])
        for x, y in zip(got, want):
            assert abs(x - y) <= bound * abs(y), (j, got, want)


@pytest.mark.xfail(strict=True, reason=(
    "at eps << 1 each end contribution's weights reach about phi / eps^3 and round before "
    "the contributions cancel (ROADMAP item 7): bc_1 and tc1_u read 1.8e-9"))
def test_a_short_interval_reads_its_outer_value_and_continuity_at_rounding():
    # bc_1 (u = phi1 at a) and tc1_u (u continuous at gamma) read the short
    # minus interval's weights at its two ends. Summing the three end
    # contributions (the outer data, F' and psi at gamma) as shares over 2u
    # and 2v before forming the weights, they read 1.1e-11.
    _, _, sol = _short_interval_solution(1e-3)
    assert sol.report.bc_1 <= 2e-11 and sol.report.tc1_u <= 2e-11

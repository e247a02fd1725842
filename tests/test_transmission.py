from dataclasses import replace

import numpy as np
import pytest

from bitrans import (
    AnomalyError,
    BoundaryData,
    CylinderGeometry,
    EvaluationError,
    InterfaceSources,
    InvalidGeometryError,
    ModalForcing,
    SIDE_MINUS,
    SIDE_PLUS,
    SIDES,
    SolveOptions,
    SubproblemSolution,
    TransmissionSolution,
    alphas_minus,
    alphas_plus,
    assemble_dense_operators,
    assemble_sources,
    assemble_transmission_operators,
    build_dirichlet_laplacian_1d,
    f_components,
    f_total,
    from_matrix,
    generator_matrix,
    leading_order_interface,
    manufactured_homogeneous,
    phi_tilde_minus,
    phi_tilde_plus,
    residual_report,
    solve_interface_block,
    solve_interface_calculus,
    solve_transmission,
    u_delta,
    v_delta,
)
from bitrans import problem
from bitrans.symbols import SymbolContext


def scalar_tops(mu=-1.0, c=1.0, d=1.0, km=1.0, kp=1.0):
    op = from_matrix(np.array([[mu]]))
    geom = CylinderGeometry(-c, 0.0, d)
    return op, geom, assemble_transmission_operators(op, geom, km, kp)


def scalar_dense(mu=-1.0, c=1.0, d=1.0, km=1.0, kp=1.0):
    op, geom, _ = scalar_tops(mu, c, d, km, kp)
    return assemble_dense_operators(op, geom, km, kp)


def test_uv_scalar_values():
    dense = scalar_dense()
    assert dense.minus.U[0, 0] == pytest.approx(0.1289058, abs=1e-6)
    assert dense.minus.V[0, 0] == pytest.approx(1.6004236, abs=1e-6)
    _, _, tops = scalar_tops()
    assert tops.minus.u[0] == pytest.approx(0.1289058, abs=1e-6)
    assert tops.minus.v[0] == pytest.approx(1.6004236, abs=1e-6)


def test_uv_large_interval_limit():
    dense = scalar_dense(c=50.0, d=50.0)
    assert dense.minus.U[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert dense.minus.V[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_uv_spectral_mapping_modes():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.1)
    dense = assemble_dense_operators(op, geom, 1.0, 1.0)
    q = op.eigenvectors
    for ops, delta in ((dense.minus, geom.c), (dense.plus, geom.d)):
        for mat, sym in ((ops.U, u_delta), (ops.V, v_delta)):
            modal = np.diag(q.T @ mat @ q)
            exact = np.array([sym(delta, -mu) for mu in op.eigenvalues])
            assert np.max(np.abs(modal - exact)) <= 1e-11 * np.max(np.abs(exact))


def test_p_blocks_scalar_values():
    dense = scalar_dense()
    assert dense.P1_plus[0, 0] == pytest.approx(14.7649, abs=2e-4)
    assert dense.P2_plus[0, 0] == pytest.approx(7.2480, abs=2e-4)
    assert dense.P3_plus[0, 0] == pytest.approx(4.2689, abs=2e-4)
    _, _, tops = scalar_tops()
    for got, want in zip(tops.plus.f, (14.7649, 7.2480, 4.2689)):
        assert got[0] == pytest.approx(want, abs=2e-4)


def test_p_blocks_large_interval_limit():
    dense = scalar_dense(c=50.0, d=50.0, km=0.7, kp=2.0)
    for pm, k in ((dense.P1_minus, 0.7), (dense.P2_minus, 0.7), (dense.P3_minus, 0.7),
                  (dense.P1_plus, 2.0), (dense.P2_plus, 2.0), (dense.P3_plus, 2.0)):
        assert pm[0, 0] == pytest.approx(2.0 * k, abs=1e-10)


@pytest.mark.parametrize("side", SIDES)
def test_determinant_block_identity_m8(side):
    op = build_dirichlet_laplacian_1d(8, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    km, kp = 1.0, 3.0
    dense = assemble_dense_operators(op, geom, km, kp)
    ops = dense.minus if side == SIDE_MINUS else dense.plus
    k = km if side == SIDE_MINUS else kp
    p1, p2, p3 = ((dense.P1_minus, dense.P2_minus, dense.P3_minus) if side == SIDE_MINUS
                  else (dense.P1_plus, dense.P2_plus, dense.P3_plus))
    lhs = p1 @ p3 - p2 @ p2
    rhs = 16.0 * k**2 * ops.u_inv(ops.v_inv(ops.E2))
    scale = max(np.linalg.norm(lhs, 2), np.linalg.norm(rhs, 2), 1.0)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * scale


def test_determinant_per_mode_values_m8():
    op = build_dirichlet_laplacian_1d(8, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    tops = assemble_transmission_operators(op, geom, 1.0, 3.0)
    dense = assemble_dense_operators(op, geom, 1.0, 3.0)
    scale = 1.0 + np.max(np.abs(tops.det_modal_symbols))
    assert np.max(np.abs(tops.det_modal_symbols - dense.det_modal_assembled)) <= 1e-10 * scale
    assert tops.det_gap <= 1e-10


def test_determinant_scalar_sign_and_value():
    _, _, tops = scalar_tops()
    ctx = SymbolContext(1.0, 1.0, 1.0, 1.0)
    assert tops.det_modal_symbols[0] == pytest.approx(f_total(ctx, 1.0), rel=1e-12)
    assert tops.det_modal_symbols[0] == pytest.approx(252.12, abs=1e-2)
    assert tops.det_modal_symbols[0] > 0   # -M f(-A) with M = -1


def test_lambda_adjugate_identity():
    op = build_dirichlet_laplacian_1d(8, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    dense = assemble_dense_operators(op, geom, 1.0, 3.0)
    m = op.m
    mmat = generator_matrix(op)
    adj = np.block([[-dense.p3_sum, dense.p2_diff],
                    [-mmat @ dense.p2_diff, mmat @ dense.p1_sum]])
    det = dense.det_operator()
    target = np.block([[det, np.zeros((m, m))], [np.zeros((m, m)), det]])
    gap = np.linalg.norm(dense.Lambda @ adj - target, 2)
    assert gap <= 1e-10 * np.linalg.norm(target, 2)


def test_lambda_large_interval_collapse():
    mu, km, kp = -2.0, 0.6, 2.1
    op = from_matrix(np.array([[mu]]))
    geom = CylinderGeometry(-40.0, 0.0, 40.0)
    dense = assemble_dense_operators(op, geom, km, kp)
    mval = op.generator_eigenvalues[0]
    expected = np.array([[2 * (kp + km) * mval, -2 * (kp - km)],
                         [2 * (kp - km) * mval, -2 * (kp + km)]])
    assert np.max(np.abs(dense.Lambda - expected)) < 1e-12


def test_sources_zero_data():
    _, geom, tops = scalar_tops()
    zero = np.zeros(1)
    src = assemble_sources(tops, (zero,) * 4, (zero,) * 4, zero, zero, zero, zero)
    assert np.all(src.s1 == 0) and np.all(src.s2 == 0) and np.all(src.s_check == 0)


def test_sources_scalar_flux_example():
    # Only F'''_+(gamma) = 1, k+ = 1, A = (-1): s_check = -1, S1 = +1, S2 = 0.
    _, geom, tops = scalar_tops()
    zero = np.zeros(1)
    src = assemble_sources(tops, (zero,) * 4, (zero,) * 4,
                           fprime_gamma_minus=zero, f3_gamma_minus=zero,
                           fprime_gamma_plus=zero, f3_gamma_plus=np.array([1.0]))
    assert src.s_check[0] == pytest.approx(-1.0, rel=1e-14)
    assert src.s1[0] == pytest.approx(1.0, rel=1e-14)
    assert src.s2[0] == pytest.approx(0.0, abs=1e-15)


def test_sources_mirrored_cancellation():
    # k+ = k-, c = d, mirrored quadruples: S1 = 0 by term-by-term cancellation.
    _, geom, tops = scalar_tops(km=1.3, kp=1.3)
    rng = np.random.default_rng(6)
    pt2, pt4 = rng.normal(size=2)
    zero = np.zeros(1)
    ptm = (zero, np.array([pt2]), zero, np.array([pt4]))
    ptp = (zero, np.array([pt2]), zero, np.array([-pt4]))
    src = assemble_sources(tops, ptm, ptp, zero, zero, zero, zero)
    assert abs(src.s1[0]) < 1e-13


def test_interface_block_zero_sources():
    op = build_dirichlet_laplacian_1d(5, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    tops = assemble_transmission_operators(op, geom, 1.0, 3.0)
    dense = assemble_dense_operators(op, geom, 1.0, 3.0)
    src = InterfaceSources(np.zeros(5), np.zeros(5), np.zeros(5))
    data = solve_interface_block(dense, src)
    assert np.all(data.psi1 == 0) and np.all(data.psi2 == 0)
    data = solve_interface_calculus(tops, src)
    assert np.all(data.psi1 == 0) and np.all(data.psi2 == 0)


def test_two_route_agreement_random_m16():
    op = build_dirichlet_laplacian_1d(16, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    tops = assemble_transmission_operators(op, geom, 1.0, 3.0)
    dense = assemble_dense_operators(op, geom, 1.0, 3.0)
    rng = np.random.default_rng(42)
    for _ in range(10):
        src = InterfaceSources(rng.standard_normal(16), rng.standard_normal(16), np.zeros(16))
        a = solve_interface_block(dense, src)
        b = solve_interface_calculus(tops, src)
        scale = 1.0 + max(np.max(np.abs(a.psi1)), np.max(np.abs(a.psi2)))
        gap = max(np.max(np.abs(a.psi1 - b.psi1)), np.max(np.abs(a.psi2 - b.psi2)))
        assert gap <= 1e-10 * scale


def test_calculus_route_scalar_det():
    _, geom, tops = scalar_tops()
    src = InterfaceSources(np.array([252.1155]), np.zeros(1), np.zeros(1))
    data = solve_interface_calculus(tops, src)
    # psi1 = -p3s * S1 / det with det = -m f = +f(1).
    ctx = SymbolContext(1.0, 1.0, 1.0, 1.0)
    f1, f2, f3, _ = f_components(1.0, 1.0)
    expected = -2.0 * f3 * 252.1155 / f_total(ctx, 1.0)
    assert data.psi1[0] == pytest.approx(expected, rel=1e-10)


def test_leading_order_zero_and_equal_k():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    k = 1.7
    tops = assemble_transmission_operators(op, geom, k, k)
    zero = InterfaceSources(np.zeros(3), np.zeros(3), np.zeros(3))
    l1, l2 = leading_order_interface(tops, zero)
    assert np.all(l1 == 0) and np.all(l2 == 0)
    rng = np.random.default_rng(9)
    src = InterfaceSources(rng.normal(size=3), rng.normal(size=3), np.zeros(3))
    l1, l2 = leading_order_interface(tops, src)
    q = op.eigenvectors   # sources are modal, the leading-order pair physical
    expected1 = q @ (src.s1 / op.generator_eigenvalues) / (4.0 * k)
    assert np.max(np.abs(l1 - expected1)) < 1e-13
    assert np.max(np.abs(l2 + q @ src.s2 / (4.0 * k))) < 1e-13


def test_leading_order_asymptotic_sweep():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    q = op.eigenvectors
    bc = BoundaryData(q @ [1.0, -0.7, 0.4], q @ [0.3, 0.2, -0.5],
                      q @ [-0.6, 0.1, 0.8], q @ [0.2, -0.4, 0.3])
    gaps = []
    for cd in (1.0, 2.0, 4.0, 8.0):
        geom = CylinderGeometry(-cd, 0.0, cd)
        sol = solve_transmission(op, geom, 1.0, 3.0, None, bc)
        l1, l2 = leading_order_interface(sol.operators, sol.sources)
        num = max(np.max(np.abs(sol.interface.psi1 - l1)),
                  np.max(np.abs(sol.interface.psi2 - l2)))
        den = max(np.max(np.abs(sol.interface.psi1)), np.max(np.abs(sol.interface.psi2)))
        gaps.append(num / den)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-6


def test_solve_transmission_zero_case_exact():
    op = build_dirichlet_laplacian_1d(4, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    sol = solve_transmission(op, geom, 1.0, 2.0, options=SolveOptions(route="both"))
    assert np.all(sol.interface.psi1 == 0) and np.all(sol.interface.psi2 == 0)
    for side in SIDES:
        assert np.max(np.abs(sol.field(side, geom.grid(side, 9), 0))) == 0.0
    r = sol.report
    for key in ("eq_minus", "eq_plus", "bc_1", "bc_2", "bc_3", "bc_4",
                "tc1_u", "tc1_du", "tc2_flux2", "tc2_flux3", "route_gap"):
        assert getattr(r, key) == 0.0
    assert r.passed


def test_exact_homogeneous_reproduction():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    case = manufactured_homogeneous(op, geom, [0, 1, 2],
                                    [0.8, -0.5, 0.3], [-0.4, 0.6, 0.2])
    p1, p2 = case.psi()
    sol = solve_transmission(op, geom, 1.0, 2.5, case.forcing(), case.boundary_data(),
                             SolveOptions(route="both"))
    assert np.max(np.abs(sol.interface.psi1 - p1)) < 1e-9
    assert np.max(np.abs(sol.interface.psi2 - p2)) < 1e-9
    for side in SIDES:
        xs = geom.grid(side, 17)
        assert np.max(np.abs(sol.field(side, xs, 0) - case.field(side, xs, 0))) < 1e-9
    r = sol.report
    for key in ("bc_1", "bc_2", "bc_3", "bc_4", "tc1_u", "tc1_du",
                "tc2_flux2", "tc2_flux3"):
        assert getattr(r, key) <= 1e-9


def test_random_case_budgets_met():
    op = build_dirichlet_laplacian_1d(8, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    rng = np.random.default_rng(12)
    bc = BoundaryData(*rng.normal(size=(4, 8)))
    sol = solve_transmission(op, geom, 1.0, 3.0, None, bc, SolveOptions(route="both"))
    assert sol.report.passed
    assert sol.route_gap <= 1e-10


def test_reflection_symmetry():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.8, 0.0, 0.8)
    rng = np.random.default_rng(7)
    phi1, phi2 = rng.normal(size=(2, 3))
    bc = BoundaryData(phi1, phi2, phi1, -phi2)
    sol = solve_transmission(op, geom, 2.0, 2.0, None, bc)
    assert np.max(np.abs(sol.interface.psi2)) <= 1e-10 * (1 + np.max(np.abs(sol.interface.psi1)))
    offsets = np.linspace(0.05, 0.75, 16)
    um = sol.field(SIDE_MINUS, geom.gamma - offsets, 0)
    up = sol.field(SIDE_PLUS, geom.gamma + offsets, 0)
    assert np.max(np.abs(um - up)) <= 1e-9 * (1 + np.max(np.abs(um)))


def test_tc1_perturbation_injection():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    rng = np.random.default_rng(3)
    bc = BoundaryData(*rng.normal(size=(4, 3)))
    sol = solve_transmission(op, geom, 1.0, 2.0, None, bc)
    eps = np.array([1e-4, -2e-4, 3e-4])
    # Rebuild the plus side from the perturbed interface value.
    pt_p = (np.zeros(3),) * 4
    q = op.eigenvectors
    ops_p = sol.operators.plus
    pt_p = phi_tilde_plus(ops_p, q.T @ bc.phi1_plus, q.T @ bc.phi2_plus,
                          np.zeros(3), np.zeros(3))
    al_pert = alphas_plus(ops_p, q.T @ (sol.interface.psi1 + eps), sol.interface.psi2_hat, pt_p)
    plus_pert = SubproblemSolution(SIDE_PLUS, geom, sol.operator, al_pert)
    gap = plus_pert.evaluate(geom.gamma, 0) - sol.field(SIDE_MINUS, geom.gamma, 0)[:, 0]
    assert np.max(np.abs(gap - eps)) <= 1e-12 * (1 + np.max(np.abs(eps)))


def test_wrong_flux_sign_convention_breaks_tc2():
    # Flipping the sign of the M^{-2} S-check term in S1 must give a
    # solution that the report flags on the third-order flux condition.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    # A genuinely forced problem so s_check != 0.
    forcing = ModalForcing.sine(op, geom, SIDE_PLUS, 0, k_multiple=1, amplitude=2.0)
    sol_good = solve_transmission(op, geom, 1.0, 2.0, forcing)
    assert sol_good.report.tc2_flux3 <= 1e-9
    assert sol_good.report.passed

    tops = sol_good.operators
    g = op.generator_eigenvalues
    sources = sol_good.sources
    assert np.max(np.abs(sources.s_check)) > 0.0
    src_bad = replace(sources, s1=sources.s1 + 2 * sources.s_check / g**2)
    data = solve_interface_calculus(tops, src_bad)
    part_m, part_p = sol_good.minus.particular, sol_good.plus.particular
    zero = np.zeros(3)
    pt_m = phi_tilde_minus(tops.minus, zero, zero, part_m.fprime_left, part_m.fprime_right)
    pt_p = phi_tilde_plus(tops.plus, zero, zero, part_p.fprime_left, part_p.fprime_right)
    al_m = alphas_minus(tops.minus, data.psi1_hat, data.psi2_hat, pt_m)
    al_p = alphas_plus(tops.plus, data.psi1_hat, data.psi2_hat, pt_p)
    bad = TransmissionSolution(
        problem=sol_good.problem, operators=tops, sources=src_bad, interface=data,
        minus=SubproblemSolution(SIDE_MINUS, geom, op, al_m, part_m),
        plus=SubproblemSolution(SIDE_PLUS, geom, op, al_p, part_p),
        options=sol_good.options,
    )
    report = residual_report(bad)
    assert report.tc2_flux3 > 1e-3   # far over its 1e-9 budget: (TC2) visibly breaks
    assert report.passed is False


def test_report_serialization_keys():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    sol = solve_transmission(op, geom, 1.0, 2.0)
    payload = sol.report.to_dict()
    required = {"eq_minus", "eq_plus", "bc_1", "bc_2", "bc_3", "bc_4",
                "tc1_u", "tc1_du", "tc2_flux2", "tc2_flux3", "route_gap",
                "cond_Uminus", "cond_Uplus", "cond_Vminus", "cond_Vplus",
                "cond_Lambda", "det_gap"}
    assert required <= set(payload)
    import json

    json.dumps(payload)


def test_commutator_guard_raises_on_foreign_blocks():
    op, geom, tops = scalar_tops()
    src = InterfaceSources(np.ones(1), np.ones(1), np.zeros(1))
    # sanity: the dense reference blocks commute
    assert assemble_dense_operators(op, geom, 1.0, 1.0).max_commutator() <= 1e-11
    data = solve_interface_calculus(tops, src)
    assert np.isfinite(data.psi1).all()


def test_homogeneous_budgets_met_at_m96():
    # Dense M^3-weighted products pushed tc2_flux3 to 6.3e-9 and id3_* to
    # 1.7e-9 / 4.1e-9 here; per-mode coefficients keep them in budget.
    op = build_dirichlet_laplacian_1d(96, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    rng = np.random.default_rng(0)
    bc = BoundaryData(*(rng.standard_normal(96) for _ in range(4)))
    sol = solve_transmission(op, geom, 1.0, 3.0, None, bc, SolveOptions(route="both"))
    r = sol.report
    for key in ("bc_1", "bc_2", "bc_3", "bc_4", "tc1_u", "tc1_du", "tc2_flux2",
                "tc2_flux3", "id2_minus", "id2_plus", "id3_minus", "id3_plus"):
        assert getattr(r, key) <= r.budgets[key], key


def _standard_case(m):
    """Geometry (-0.7, 0, 1.3), k = 1, 3, seed-0 boundary data, plus-side sine forcing."""
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    rng = np.random.default_rng(0)
    bc = BoundaryData(*(rng.standard_normal(m) for _ in range(4)))
    forcing = ModalForcing.sine(op, geom, SIDE_PLUS, 1, 1, 1.5)
    return solve_transmission(op, geom, 1.0, 3.0, forcing, bc)


def _over_budget(report):
    return {key for key, budget in report.budgets.items() if getattr(report, key) > budget}


def test_report_flags_perturbed_boundary_data():
    sol = _standard_case(8)
    assert sol.report.passed
    bc = sol.problem.boundary
    shifted = BoundaryData(*(v + 1e-6 for v in (bc.phi1_minus, bc.phi2_minus,
                                                 bc.phi1_plus, bc.phi2_plus)))
    report = residual_report(replace(sol, problem=replace(sol.problem, boundary=shifted)))
    assert _over_budget(report) == {"bc_1", "bc_2", "bc_3", "bc_4"}
    assert report.passed is False


def test_report_flags_perturbed_forcing():
    sol = _standard_case(8)
    assert sol.report.passed
    geom, forcing = sol.geometry, sol.problem.forcing
    # An error as large as the forcing itself, on both sides.
    shift = np.max(np.abs(forcing.sample(SIDE_PLUS, geom.grid(SIDE_PLUS, 33))))
    wrong = ModalForcing.from_functions(geom, sol.m,
                                        lambda x: forcing.sample(SIDE_MINUS, x) + shift,
                                        lambda x: forcing.sample(SIDE_PLUS, x) + shift)
    report = residual_report(replace(sol, problem=replace(sol.problem, forcing=wrong)))
    assert _over_budget(report) == {"eq_minus", "eq_plus"}
    assert report.passed is False


def test_report_flags_perturbed_plus_coefficients():
    sol = _standard_case(8)
    assert sol.report.passed
    a1, a2, a3, a4 = sol.plus.alphas
    wrong = replace(sol.plus, alphas=(a1, a2 + 1e-6, a3, a4))
    report = residual_report(replace(sol, plus=wrong))
    failed = _over_budget(report)
    assert {"tc1_u", "tc1_du", "tc2_flux2", "tc2_flux3"} <= failed
    # The fields still match their own coefficients and equation.
    assert not failed & {"id2_plus", "id3_plus", "eq_minus", "eq_plus"}
    assert report.passed is False


def test_report_matches_physical_recomputation_at_m64():
    # The physical-basis formulas of the earlier report, with the dense
    # A = Q diag(mu) Q^T, must reproduce the eigenbasis report entries.
    sol = _standard_case(64)
    op, geom, r = sol.operator, sol.geometry, sol.report
    a, q = op.matrix, op.eigenvectors
    g = op.generator_eigenvalues

    def scaled_sup(res, ref):
        return float(np.max(np.abs(res)) / (1.0 + ref))

    for side, key in ((SIDE_MINUS, "eq_minus"), (SIDE_PLUS, "eq_plus")):
        xs = geom.grid(side, 33)
        h = xs[1] - xs[0]
        u0, u2, u3 = (sol.field(side, xs, order) for order in (0, 2, 3))
        d4 = (u3[:, 2:] - u3[:, :-2]) / (2.0 * h)
        fvals = q @ sol.problem.forcing.sample(side, xs[1:-1])
        au2 = a @ u2[:, 1:-1]
        a2u0 = a @ (a @ u0[:, 1:-1])
        ref = max(np.max(np.abs(d4)), 2.0 * np.max(np.abs(au2)),
                  np.max(np.abs(a2u0)), np.max(np.abs(fvals)))
        assert abs(scaled_sup(d4 + 2.0 * au2 + a2u0 - fvals, ref) - getattr(r, key)) <= 1e-12

    um = [sol.field(SIDE_MINUS, geom.gamma, order)[:, 0] for order in range(4)]
    up = [sol.field(SIDE_PLUS, geom.gamma, order)[:, 0] for order in range(4)]
    flux3_m = 1.0 * (um[3] + a @ um[1])
    flux3_p = 3.0 * (up[3] + a @ up[1])
    ref = max(np.max(np.abs(flux3_m)), np.max(np.abs(flux3_p)))
    assert abs(scaled_sup(flux3_m - flux3_p, ref) - r.tc2_flux3) <= 1e-12

    for sub, u, e, sign, key in ((sol.minus, um, sol.operators.minus.e, 1.0, "id3_minus"),
                                 (sol.plus, up, sol.operators.plus.e, -1.0, "id3_plus")):
        _, a2, _, a4 = sub.alphas
        part = sub.particular
        lhs = u[3] + a @ u[1]
        rhs = q @ (2.0 * g**2 * ((1.0 + e) * a2 - sign * (1.0 - e) * a4)
                   + part.f3_interface - g**2 * part.fprime_interface)
        assert abs(scaled_sup(lhs - rhs, np.max(np.abs(lhs))) - getattr(r, key)) <= 1e-12


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_non_finite_or_nonpositive_diffusivity_rejected(bad):
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    for km, kp in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(InvalidGeometryError):
            solve_transmission(op, geom, km, kp)


@pytest.mark.parametrize("route", ["calculus", "block", "both"])
def test_vanishing_symbol_is_an_evaluation_error(route):
    op = from_matrix(np.diag([-1e-250, -1e-251]))  # u_delta underflows on both modes
    geom = CylinderGeometry(-1e-8, 0.0, 1.0)
    with pytest.raises(EvaluationError, match="mode 0"):
        solve_transmission(op, geom, 1.0, 1.0, options=SolveOptions(route=route))


def test_csv_forcing_builds_one_spline_per_forced_side(monkeypatch):
    # Minus rows are all zero, plus rows are not: one solve with its report
    # samples each side on three grids but interpolates the plus side once.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    rows = [(x, j, 0.0, SIDE_MINUS) for x in geom.grid(SIDE_MINUS, 21) for j in range(3)]
    rows += [(x, j, np.sin(3.0 * x) + j, SIDE_PLUS) for x in geom.grid(SIDE_PLUS, 21)
             for j in range(3)]
    forcing = ModalForcing.from_csv_rows(geom, 3, rows)
    builds = []
    real = problem.CubicSpline
    monkeypatch.setattr(problem, "CubicSpline",
                        lambda *args, **kw: builds.append(1) or real(*args, **kw))
    sol = solve_transmission(op, geom, 1.0, 2.5, forcing=forcing)
    assert len(builds) == 1
    assert sol.report.passed
    reference = real(forcing.grid_plus, forcing.samples_plus)
    for n in (sol.options.n_x, 2 * sol.options.n_x - 1, sol.options.probe_points):
        xs = geom.grid(SIDE_PLUS, n)
        assert np.array_equal(forcing.sample(SIDE_PLUS, xs), reference(xs))
        zeros = forcing.sample(SIDE_MINUS, geom.grid(SIDE_MINUS, n))
        assert np.array_equal(zeros, np.zeros((3, n)))
    assert len(builds) == 1

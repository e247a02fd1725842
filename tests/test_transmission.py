import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitrans import (
    AnomalyError,
    BoundaryData,
    CylinderGeometry,
    EvaluationError,
    InterfaceData,
    InterfaceSources,
    InvalidGeometryError,
    ModalForcing,
    ResolutionError,
    SIDE_MINUS,
    SIDE_PLUS,
    SIDES,
    SolveOptions,
    SubproblemSolution,
    TransmissionSolution,
    alphas_minus,
    alphas_plus,
    assemble_sources,
    assemble_transmission_operators,
    build_dirichlet_laplacian_1d,
    compare,
    f_components,
    f_total,
    from_matrix,
    leading_order_interface,
    manufactured_homogeneous,
    phi_tilde_minus,
    phi_tilde_plus,
    residual_report,
    solve_interface_calculus,
    solve_transmission,
    u_delta,
    v_delta,
)
from bitrans import problem, symbols
from bitrans.symbols import SymbolContext
from bitrans.subproblem import interface_fluxes
from bitrans.transmission import BLOCK_RESIDUAL_TOL, DET_CROSSCHECK_TOL, _end_traces, _norm
from dense_reference import (
    assemble_dense_operators,
    earlier_eq,
    generator_matrix,
    particular_eq,
    solve_block,
    whole_field_eq,
)


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
    assert tops.det_modal_symbols[0] == pytest.approx(f_total(ctx, 1.0), rel=1e-12, abs=0.0)
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
    assert np.all(src.s1 == 0) and np.all(src.s2 == 0)


def test_sources_scalar_flux_example():
    # Only F'''_+(gamma) = 1, k+ = 1, A = (-1): the particular-flux source
    # -k+ F'''_+ = -1 enters S1 as -M^{-2} times it, so S1 = +1 and S2 = 0.
    _, geom, tops = scalar_tops()
    zero = np.zeros(1)
    src = assemble_sources(tops, (zero,) * 4, (zero,) * 4,
                           fprime_gamma_minus=zero, f3_gamma_minus=zero,
                           fprime_gamma_plus=zero, f3_gamma_plus=np.array([1.0]))
    assert src.s1[0] == pytest.approx(1.0, rel=1e-14, abs=0.0)
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
    src = InterfaceSources(np.zeros(5), np.zeros(5))
    psi1, psi2 = solve_block(dense, src)
    assert np.all(psi1 == 0) and np.all(psi2 == 0)
    data = solve_interface_calculus(tops, src)
    assert np.all(data.psi1 == 0) and np.all(data.psi2 == 0)


def test_two_route_agreement_random_m16():
    op = build_dirichlet_laplacian_1d(16, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    tops = assemble_transmission_operators(op, geom, 1.0, 3.0)
    dense = assemble_dense_operators(op, geom, 1.0, 3.0)
    rng = np.random.default_rng(42)
    for _ in range(10):
        src = InterfaceSources(rng.standard_normal(16), rng.standard_normal(16))
        a1, a2 = solve_block(dense, src)
        b = solve_interface_calculus(tops, src)
        scale = 1.0 + max(np.max(np.abs(a1)), np.max(np.abs(a2)))
        gap = max(np.max(np.abs(a1 - b.psi1)), np.max(np.abs(a2 - b.psi2)))
        assert gap <= 1e-10 * scale


def test_calculus_route_scalar_det():
    _, geom, tops = scalar_tops()
    src = InterfaceSources(np.array([252.1155]), np.zeros(1))
    data = solve_interface_calculus(tops, src)
    # psi1 = -p3s * S1 / det with det = -m f = +f(1).
    ctx = SymbolContext(1.0, 1.0, 1.0, 1.0)
    f1, f2, f3, _ = f_components(1.0, 1.0)
    expected = -2.0 * f3 * 252.1155 / f_total(ctx, 1.0)
    assert data.psi1[0] == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_leading_order_zero_and_equal_k():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    k = 1.7
    tops = assemble_transmission_operators(op, geom, k, k)
    zero = InterfaceSources(np.zeros(3), np.zeros(3))
    l1, l2 = leading_order_interface(tops, zero)
    assert np.all(l1 == 0) and np.all(l2 == 0)
    rng = np.random.default_rng(9)
    src = InterfaceSources(rng.normal(size=3), rng.normal(size=3))
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
    # Flipping the sign of the particular-flux term -M^{-2} S-check in S1,
    # S-check = -k+ F+''' + k+ M^2 F+' + k- F-''' - k- M^2 F-' at gamma, must
    # give a solution that the report flags on the third-order flux condition.
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
    part_m, part_p = sol_good.minus.particular, sol_good.plus.particular
    s_check = (-2.0 * part_p.f3_left + 2.0 * g**2 * part_p.fprime_left
               + part_m.f3_right - g**2 * part_m.fprime_right)
    assert np.max(np.abs(s_check)) > 0.0
    src_bad = replace(sources, s1=sources.s1 + 2 * s_check / g**2)
    data = solve_interface_calculus(tops, src_bad)
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
    assert _whole_field_eq_flags(bad, report) <= _over_budget(report)
    assert report.passed is False


def test_report_serialization_keys():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    sol = solve_transmission(op, geom, 1.0, 2.0)
    payload = sol.report.to_dict()
    # The keys README documents, plus the budgets and the verdict.
    documented = {"eq_minus", "eq_plus", "bc_1", "bc_2", "bc_3", "bc_4",
                  "tc1_u", "tc1_du", "tc2_flux2", "tc2_flux3", "route_gap",
                  "cond_Uminus", "cond_Uplus", "cond_Vminus", "cond_Vplus",
                  "cond_Lambda", "det_gap"}
    assert set(payload) == documented | {"budgets", "passed"}
    import json

    json.dumps(payload)


def test_commutator_guard_raises_on_foreign_blocks():
    op, geom, tops = scalar_tops()
    src = InterfaceSources(np.ones(1), np.ones(1))
    # sanity: the dense reference blocks commute
    assert assemble_dense_operators(op, geom, 1.0, 1.0).max_commutator() <= 1e-11
    data = solve_interface_calculus(tops, src)
    assert np.isfinite(data.psi1).all()


@pytest.mark.parametrize("m", [96, 256, 512, 1024])
def test_homogeneous_budgets_met(m):
    # Flux traces formed as u''' - M^2 u' from differentiated fields read
    # 2.3e-8, 1.5e-7 and 2.4e-6 at m = 256, 512 and 1024 (rounding at
    # eps g^3 |u|); the closed forms in the coefficients keep them in budget.
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    rng = np.random.default_rng(0)
    bc = BoundaryData(*(rng.standard_normal(m) for _ in range(4)))
    sol = solve_transmission(op, geom, 1.0, 3.0, None, bc, SolveOptions(route="both"))
    r = sol.report
    for key in r.budgets:
        assert getattr(r, key) <= r.budgets[key], key
    assert r.eq_minus == r.eq_plus == 0.0  # unforced: the homogeneous part is exact


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


def _whole_field_eq_flags(solution, report):
    """The eq entries the earlier whole-field estimator flags, under the report's budgets."""
    return {key for side, key in ((SIDE_MINUS, "eq_minus"), (SIDE_PLUS, "eq_plus"))
            if whole_field_eq(solution, side) > report.budgets[key]}


def test_report_flags_perturbed_boundary_data():
    sol = _standard_case(8)
    assert sol.report.passed
    bc = sol.problem.boundary
    shifted = BoundaryData(*(v + 1e-6 for v in (bc.phi1_minus, bc.phi2_minus,
                                                 bc.phi1_plus, bc.phi2_plus)))
    bad = replace(sol, problem=replace(sol.problem, boundary=shifted))
    report = residual_report(bad)
    assert _over_budget(report) == {"bc_1", "bc_2", "bc_3", "bc_4"}
    assert _whole_field_eq_flags(bad, report) == set()  # neither eq estimator flags
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
    bad = replace(sol, problem=replace(sol.problem, forcing=wrong))
    report = residual_report(bad)
    assert _over_budget(report) == {"eq_minus", "eq_plus"}
    assert _whole_field_eq_flags(bad, report) == {"eq_minus", "eq_plus"}  # both estimators flag
    assert report.passed is False


def test_report_flags_perturbed_plus_coefficients():
    sol = _standard_case(8)
    assert sol.report.passed
    a1, a2, a3, a4 = sol.plus.alphas
    wrong = replace(sol.plus, alphas=(a1, a2 + 1e-6, a3, a4))
    bad = replace(sol, plus=wrong)
    report = residual_report(bad)
    failed = _over_budget(report)
    assert {"tc1_u", "tc1_du", "tc2_flux2", "tc2_flux3"} <= failed
    # The fields still match their own coefficients and equation: neither
    # eq estimator flags.
    assert not failed & {"eq_minus", "eq_plus"}
    assert _whole_field_eq_flags(bad, report) == set()
    assert report.passed is False


@pytest.mark.parametrize("m, forced", [(1, False), (8, False), (8, True), (64, True)])
def test_an_unforced_sides_eq_is_exactly_zero_for_any_coefficients(m, forced):
    # Per mode the homogeneous part solves the equation exactly, so a side
    # without forcing and without an active particular row has nothing to
    # measure, whatever its coefficients.
    sol = _standard_case(m) if forced else solve_transmission(
        build_dirichlet_laplacian_1d(m, 1.0), CylinderGeometry(-0.7, 0.0, 1.3), 1.0, 3.0)
    rng = np.random.default_rng(m)
    for _ in range(3):
        minus = replace(sol.minus, alphas=tuple(
            rng.normal(size=m) * 10.0 ** rng.uniform(-8, 8, m) for _ in range(4)))
        report = residual_report(replace(sol, minus=minus))
        assert report.eq_minus == 0.0
        assert (report.eq_plus > 0.0) if forced else (report.eq_plus == 0.0)


def _mismatched_forcing_cases():
    """The standard case at m = 8 reported against a forcing its particular parts did not solve.

    Solved with the plus-side sine and reported against zero forcing or
    against the sine on another mode, and solved unforced and reported
    against the sine.
    """
    sol = _standard_case(8)
    geom, op = sol.geometry, sol.operator
    unforced = solve_transmission(op, geom, 1.0, 3.0, None, sol.problem.boundary)
    others = (ModalForcing.zero(8, geom), ModalForcing.sine(op, geom, SIDE_PLUS, 2, 1, 1.5))
    cases = [(sol, other) for other in others] + [(unforced, sol.problem.forcing)]
    return [replace(solved, problem=replace(solved.problem, forcing=forcing))
            for solved, forcing in cases]


def test_eq_flags_a_forcing_its_particular_part_did_not_solve():
    # The side whose particular part does not match its forcing fails eq,
    # the other side (unforced in both) still reads exactly 0.
    for bad in _mismatched_forcing_cases():
        report = residual_report(bad)
        assert _over_budget(report) == {"eq_plus"}
        assert report.eq_minus == 0.0


def _regime(m, forcing_of, options=None):
    """Geometry (-0.7, 0, 1.3), k = 1, 3, seed-0 boundary data and ``forcing_of(op, geom)``."""
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    rng = np.random.default_rng(0)
    bc = BoundaryData(*(rng.standard_normal(m) for _ in range(4)))
    return [solve_transmission(op, geom, 1.0, 3.0, forcing_of(op, geom), bc, options)]


def _stiff_forcing(op, geom):
    """Re e^{(1 + 5i) x} on mode 0 (the stiffest) of the plus side: a layer-free row."""
    return ModalForcing.from_functions(
        geom, op.m, None, lambda xs: np.exp((1.0 + 5.0j) * np.asarray(xs)).real[None, :],
        modes=[0])


def _csv_forcing(op, geom):
    """Normal samples at 17 points per side and mode: a spline forcing, on stage rows."""
    rng = np.random.default_rng(7)
    rows = [(x, j, value, side) for side in SIDES
            for x, column in zip(geom.grid(side, 17), rng.normal(size=(17, op.m)))
            for j, value in enumerate(column)]
    return ModalForcing.from_csv_rows(geom, op.m, rows)


def _cosine_forcing(op, geom, modes=None):
    """(j + 1) cos((j + 1) x) on each declared mode j (all by default), on both sides."""
    rows = np.arange(op.m) if modes is None else np.asarray(modes)

    def func(xs):
        return np.cos(np.outer(1.0 + rows, xs)) * (1.0 + rows)[:, None]

    return ModalForcing.from_functions(geom, op.m, func, func, modes=modes)


EQ_REGIMES = {
    "stiff-32": lambda: _regime(32, _stiff_forcing),
    "stiff-256": lambda: _regime(256, _stiff_forcing),
    "csv-8": lambda: _regime(8, _csv_forcing),
    "both-sides": lambda: _regime(16, _cosine_forcing),
    "unsorted-modes": lambda: _regime(12, lambda op, geom: _cosine_forcing(op, geom,
                                                                           [9, 0, 4, 2])),
    "mismatched-forcing": _mismatched_forcing_cases,
}


def _eq_gap_bound(solution, side, scale, rows, block):
    """B: how far a physical residual of the report's eq_* and of the earlier one can lie apart.

    Both form S, S'' = w - mu S and S''' = w' - mu S' on the same probe
    grid from the same coefficients s_k, w_k (k < L, the table length);
    they differ in rounding only: S''' at an end is read from the series
    now, and was the stored F''' less a recomputed H''' before. A float
    evaluation of S''' lies within (L + 10) eps (sum_k k^2 (|w_k| +
    |mu| |s_k|) / half + g^2 (|g| (|A| + |C| + 2 half (|B| + |D|))
    + 3 (|B| + |D|))) of the exact value: a length-L dot product with
    |T_k'| <= k^2 / half, a product and a difference, and for the earlier
    end value two closed forms of the layers' H''' of about ten operations
    each. S'' lies within (L + 3) eps sum_k (|w_k| + |mu| |s_k|), S within
    L eps sum_k |s_k|. Two evaluations differ by twice these, E3, E2 and
    E0, so per row the modal S'''' + 2 A S'' + A^2 S differ by at most
    E3 / h + 2 |mu| E2 + mu^2 E0 (S'''' is a difference over 2h). The same
    eigenvectors Q map both blocks, so a physical residual differs by at
    most sum_j |Q_ij| times that, plus the rounding of the two maps and
    four-term sums, 2 (r + 3) eps sum_j |Q_ij| (|S''''_j| + 2 |A S''_j|
    + |A^2 S_j| + |f_j|) over the r rows. First order in eps.
    """
    eps = np.finfo(float).eps
    op, part = solution.operator, solution.side(side).particular
    h = solution.geometry.length(side) / (solution.options.probe_points - 1)
    per_row = np.zeros(rows.size)
    if part.active.size:
        length, half = part.f_modal.shape[1], 0.5 * solution.geometry.length(side)
        mu = np.abs(op.eigenvalues[part.active])
        s, w = np.abs(part.f_modal), np.abs(part.w_modal)
        big_a, big_b, big_c, big_d = np.abs(part.layers)
        slopes = ((w + mu[:, None] * s) @ np.arange(length) ** 2.0 / half
                  + mu * (np.sqrt(mu) * (big_a + big_c + 2.0 * half * (big_b + big_d))
                          + 3.0 * (big_b + big_d)))
        per_row[np.searchsorted(rows, part.active)] = eps * (
            (2 * length + 20) * slopes / h
            + 2.0 * mu * (2 * length + 6) * (w + mu[:, None] * s).sum(axis=1)
            + mu**2 * 2 * length * s.sum(axis=1))
    q = np.abs(op.eigenvectors[:, rows])
    sizes = np.tensordot([1.0, 2.0, 1.0, 1.0], np.abs(block), axes=([0], [1]))
    return np.max(q @ per_row) + 2 * (rows.size + 3) * eps * np.max(q @ sizes)


@pytest.mark.parametrize("regime", sorted(EQ_REGIMES))
def test_eq_agrees_with_the_earlier_estimator_to_rounding(regime):
    # The earlier estimator (dense_reference.earlier_eq) took S''' at the
    # two ends as the stored F''' trace less H'''. With B from
    # _eq_gap_bound, the largest residual R and the scale 1 + ref each move
    # by at most B, so the entries R / (1 + ref) differ by at most
    # B (1 + eq) / (1 + ref - B), and the verdict under the report's budget
    # is the same. Observed: at most 3.4e-16 apart, against bounds of
    # 3.6e-15 to 2.7e-12.
    for sol in EQ_REGIMES[regime]():
        report = residual_report(sol)
        for side in SIDES:
            old, scale, rows, block = earlier_eq(sol, side)
            new, budget = getattr(report, "eq_" + side), report.budgets["eq_" + side]
            if not rows.size:
                assert new == old == 0.0
                continue
            gap = _eq_gap_bound(sol, side, scale, rows, block)
            assert abs(new - old) <= gap * (1.0 + old) / (scale - gap), (side, new, old)
            assert (new <= budget) == (old <= budget)


def _csv_solution(n_x):
    """The ``csv-8`` regime of ``EQ_REGIMES`` at ``n_x`` axial points."""
    return _regime(8, _csv_forcing, SolveOptions(n_x=n_x))[0]


def test_the_csv_forcing_field_converges_in_n_x():
    # Sup gap to the n_x = 4097 field: 1.2e-7, 4.6e-10 and 2.8e-11 at
    # n_x = 129, 257 and 1025, on a field of scale 1.37.
    fine, sol = _csv_solution(4097), _csv_solution(1025)
    scale = max(np.max(np.abs(fine.field(side, fine.geometry.grid(side, 65)))) for side in SIDES)
    assert compare(sol, fine).sup <= 1e-9 * scale


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "eq_* false fail: the probe-grid central difference of S''' against a C^2 spline "
    "forcing reads eq_minus 0.155 over its budget 0.146 at every n_x, while the field "
    "converges; the budget does not see the forcing's derivatives"))
def test_the_csv_forcing_report_passes_once_converged():
    assert _csv_solution(1025).report.passed


def test_report_matches_physical_recomputation_at_m64():
    # The physical-basis formulas, with the dense A = Q diag(mu) Q^T, must
    # reproduce the eigenbasis report entries: eq_* is the particular
    # part's residual (dense_reference.particular_eq), and tc2_flux3 comes
    # from closed-form traces, which the derivative-based recomputation
    # meets to 2.8e-14 on this forced case.
    sol = _standard_case(64)
    op, geom, r = sol.operator, sol.geometry, sol.report
    a = op.matrix

    def scaled_sup(res, ref):
        return float(np.max(np.abs(res)) / (1.0 + ref))

    for side, key in ((SIDE_MINUS, "eq_minus"), (SIDE_PLUS, "eq_plus")):
        assert abs(particular_eq(sol, side) - getattr(r, key)) <= 1e-12
    assert r.eq_minus == 0.0 and r.eq_plus > 0.0

    um = [sol.field(SIDE_MINUS, geom.gamma, order)[:, 0] for order in range(4)]
    up = [sol.field(SIDE_PLUS, geom.gamma, order)[:, 0] for order in range(4)]
    flux3_m = 1.0 * (um[3] + a @ um[1])
    flux3_p = 3.0 * (up[3] + a @ up[1])
    ref = max(np.max(np.abs(flux3_m)), np.max(np.abs(flux3_p)))
    assert abs(scaled_sup(flux3_m - flux3_p, ref) - r.tc2_flux3) <= 1e-12


@pytest.mark.parametrize("forced", [False, True], ids=["zero", "sine"])
@pytest.mark.parametrize("m", [8, 64])
def test_closed_form_flux_traces_match_dense_derivatives(m, forced):
    # The report forms t2 = u'' - M^2 u and t3 = u''' - M^2 u' at gamma in
    # closed form from (a2, a4) and the particular traces. Mapped to the
    # physical basis they must match u'' + A u and u''' + A u' of the
    # differentiated fields with the dense A, within the 1e-9 scaled budget.
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    rng = np.random.default_rng(0)
    bc = BoundaryData(*(rng.standard_normal(m) for _ in range(4)))
    forcing = ModalForcing.sine(op, geom, SIDE_PLUS, 1, 1, 1.5) if forced else None
    sol = solve_transmission(op, geom, 1.0, 3.0, forcing, bc)
    a, q = op.matrix, op.eigenvectors
    g = op.generator_eigenvalues
    for side, e, sign in ((SIDE_MINUS, sol.operators.minus.e, 1.0),
                          (SIDE_PLUS, sol.operators.plus.e, -1.0)):
        sub = sol.side(side)
        u = [sol.field(side, geom.gamma, order)[:, 0] for order in range(4)]
        _, a2, _, a4 = sub.alphas
        part = sub.particular
        t2 = q @ (2.0 * g * (-sign * (1.0 - e) * a2 + (1.0 + e) * a4))
        t3 = q @ (2.0 * g**2 * ((1.0 + e) * a2 - sign * (1.0 - e) * a4)
                  + part.f3_interface - g**2 * part.fprime_interface)
        for closed, dense in ((t2, u[2] + a @ u[0]), (t3, u[3] + a @ u[1])):
            assert np.max(np.abs(closed - dense)) / (1.0 + np.max(np.abs(dense))) <= 1e-9, side


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_non_finite_or_nonpositive_diffusivity_rejected(bad):
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    for km, kp in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(InvalidGeometryError):
            solve_transmission(op, geom, km, kp)


def test_block_route_is_not_an_option():
    with pytest.raises(ValueError, match="unknown route 'block'"):
        SolveOptions(route="block")


@pytest.mark.parametrize("bad", [{"n_x": 129.0}, {"probe_points": 33.0}, {"n_x": True},
                                 {"probe_points": np.float64(33)}])
def test_non_integer_counts_are_rejected_at_the_options(bad):
    # These used to pass SolveOptions and fail inside numpy with a bare TypeError.
    with pytest.raises(ValueError, match="must be an integer"):
        SolveOptions(**bad)


def test_too_coarse_particular_grid_is_rejected_at_the_options():
    with pytest.raises(ResolutionError, match="n_x >= 17"):
        SolveOptions(n_x=5)
    assert SolveOptions(n_x=np.int64(17), probe_points=5).n_x == 17


def test_interface_operators_are_read_only():
    # A solver hands the same operators to every solve; an edit in place
    # would change later answers.
    op = build_dirichlet_laplacian_1d(4, 1.0)
    tops = solve_transmission(op, CylinderGeometry(-0.7, 0.0, 1.3), 1.0, 3.0).operators
    for arr in (tops.minus.u, tops.plus.f[1], tops.minus.g, tops.p1_sum, tops.f_values,
                tops.det_modal_symbols, tops.det_modal_blocks):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


@pytest.mark.parametrize("route", ["calculus", "both"])
def test_vanishing_symbol_is_an_evaluation_error(route):
    op = from_matrix(np.diag([-1e-250, -1e-251]))  # u_delta underflows on both modes
    geom = CylinderGeometry(-1e-8, 0.0, 1.0)
    with pytest.raises(EvaluationError, match="mode 0"):
        solve_transmission(op, geom, 1.0, 1.0, options=SolveOptions(route=route))


def test_csv_forcing_builds_one_spline_per_forced_side(monkeypatch):
    # Minus rows are all zero, plus rows are not: construction interpolates
    # the plus table once, and a solve with its report samples each side on
    # three grids without building another.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    grid = geom.grid(SIDE_PLUS, 21)
    minus = [(x, j, 0.0, SIDE_MINUS) for x in geom.grid(SIDE_MINUS, 21) for j in range(3)]
    plus = [(x, j, np.sin(3.0 * x) + j, SIDE_PLUS) for x in grid for j in range(3)]
    builds = []
    real = problem.CubicSpline
    monkeypatch.setattr(problem, "CubicSpline",
                        lambda *args, **kw: builds.append(1) or real(*args, **kw))
    forcing = ModalForcing.from_csv_rows(geom, 3, minus + plus)
    assert len(builds) == 1
    sol = solve_transmission(op, geom, 1.0, 2.5, forcing=forcing)
    assert len(builds) == 1
    assert sol.report.passed
    reference = real(grid, np.reshape([value for _, _, value, _ in plus], (21, 3)).T)
    for n in (sol.options.n_x, 2 * sol.options.n_x - 1, sol.options.probe_points):
        xs = geom.grid(SIDE_PLUS, n)
        assert np.array_equal(forcing.sample(SIDE_PLUS, xs), reference(xs))
        zeros = forcing.sample(SIDE_MINUS, geom.grid(SIDE_MINUS, n))
        assert np.array_equal(zeros, np.zeros((3, n)))
    assert len(builds) == 1


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call appends its arguments to the returned list."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("forced", [False, True], ids=["zero-forcing", "plus-forced"])
def test_report_is_one_modal_pass(monkeypatch, forced):
    # Closed-form end values instead of field tables, one basis change for
    # every entry, and forcing samples only on a forced side: none without
    # forcing, none on the minus side of zero CSV samples otherwise.
    op = build_dirichlet_laplacian_1d(16, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    rng = np.random.default_rng(6)
    bc = BoundaryData(*rng.standard_normal((4, 16)))
    forcing = None
    if forced:
        rows = [(x, j, 0.0, SIDE_MINUS) for x in geom.grid(SIDE_MINUS, 21) for j in range(16)]
        rows += [(x, j, np.sin(3.0 * x) + j, SIDE_PLUS) for x in geom.grid(SIDE_PLUS, 21)
                 for j in range(16)]
        forcing = ModalForcing.from_csv_rows(geom, 16, rows)
    sol = solve_transmission(op, geom, 1.0, 3.0, forcing, bc)
    bases = _count_calls(monkeypatch, type(op), "from_modal")
    tables = _count_calls(monkeypatch, SubproblemSolution, "modal_fields")
    samples = _count_calls(monkeypatch, ModalForcing, "sample_modes")
    report = residual_report(sol)
    assert len(bases) == 1
    assert tables == []
    assert [args[1] for args in samples] == ([SIDE_PLUS] if forced else [])
    assert report.to_dict() == sol.report.to_dict()


def test_solution_csv_takes_one_table_per_side(monkeypatch):
    from bitrans.cli import _solution_csv_rows

    op = build_dirichlet_laplacian_1d(4, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    bc = BoundaryData(*np.random.default_rng(7).standard_normal((4, 4)))
    sol = solve_transmission(op, geom, 1.0, 3.0, None, bc)
    tables = _count_calls(monkeypatch, SubproblemSolution, "modal_fields")
    rows = _solution_csv_rows(sol)
    assert [args[0].side for args in tables] == [SIDE_MINUS, SIDE_PLUS]
    assert len(rows) == 1 + 2 * 4 * sol.options.probe_points * 4


def _spy_on_symbols(monkeypatch, names):
    """Count calls of bitrans.symbols functions through every bitrans name bound to them."""
    calls = Counter()
    modules = [mod for key, mod in list(sys.modules.items())
               if key == "bitrans" or key.startswith("bitrans.")]
    for name in names:
        original = getattr(symbols, name)

        def spy(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, spy)
    return calls


@pytest.mark.parametrize("route", ["calculus", "both"])
def test_one_solve_evaluates_each_interval_once(monkeypatch, route):
    # One interval_symbols pass per interval, which forms u and v itself.
    calls = _spy_on_symbols(monkeypatch, ("interval_symbols", "u_delta", "v_delta",
                                          "f_components", "f_total"))
    op = build_dirichlet_laplacian_1d(8, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    rng = np.random.default_rng(0)
    solve_transmission(op, geom, 1.0, 3.0, ModalForcing.sine(op, geom, SIDE_PLUS, 1, 1, 1.5),
                       BoundaryData(*rng.normal(size=(4, 8))), SolveOptions(route=route))
    assert dict(calls) == {"interval_symbols": 2}


def test_operators_with_a_nonpositive_determinant_symbol_cannot_be_built():
    op = build_dirichlet_laplacian_1d(4, 1.0)
    tops = assemble_transmission_operators(op, CylinderGeometry(-0.7, 0.0, 1.3), 1.0, 3.0)
    for bad in (0.0, -1.0):
        f_values = tops.f_values.copy()
        f_values[2] = bad
        with pytest.raises(AnomalyError, match="<= 0 at mode 2"):
            replace(tops, f_values=f_values)


@pytest.mark.parametrize("m", [32, 256])
def test_assembly_symbols_match_the_direct_formulas_bit_for_bit(m):
    # e^{-delta sqrt(-mu)} is exp(delta g) because g = -sqrt(-mu), and the
    # determinant the assembly forms from its two sides is f_total's.
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    tops = assemble_transmission_operators(op, geom, 0.4, 3.0)
    for side, delta in ((tops.minus, geom.c), (tops.plus, geom.d)):
        assert np.array_equal(side.e, np.exp(delta * op.generator_eigenvalues))
    ctx = SymbolContext(geom.c, geom.d, 0.4, 3.0)
    assert np.array_equal(tops.f_values, f_total(ctx, -op.eigenvalues))


@settings(max_examples=25)
@given(m=st.integers(1, 32), c=st.floats(0.1, 3.0), d=st.floats(0.1, 3.0),
       k_minus=st.floats(1e-2, 1e2), k_plus=st.floats(1e-2, 1e2),
       seed=st.integers(0, 2**32 - 1))
def test_exact_homogeneous_case_property(m, c, d, k_minus, k_plus, seed):
    # Scaled by the case's sup over both sides: the two sides' data can
    # differ by many orders, and the small side is not resolved to its own
    # scale (nor is the residual report asserted here).
    rng = np.random.default_rng(seed)
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-c, 0.0, d)
    modes = rng.choice(m, size=min(int(rng.integers(1, 5)), m), replace=False)
    case = manufactured_homogeneous(op, geom, modes, *rng.normal(size=(2, modes.size)))
    sol = solve_transmission(op, geom, k_minus, k_plus, case.forcing(), case.boundary_data())
    grids = {side: geom.grid(side, 33) for side in SIDES}
    scale = max(np.max(np.abs(case.field(side, xs))) for side, xs in grids.items())
    gap = max(np.max(np.abs(sol.field(side, xs) - case.field(side, xs)))
              for side, xs in grids.items())
    assert gap <= 1e-12 * scale, gap / scale


# --- gate thresholds -----------------------------------------------------------


@pytest.mark.parametrize("gap, admitted", [(DET_CROSSCHECK_TOL, True),
                                           (np.nextafter(DET_CROSSCHECK_TOL, 1.0), False)])
def test_the_determinant_gap_gate_admits_exactly_its_tolerance(gap, admitted):
    # With det = 0 the scaled gap is the blocks' determinant itself.
    _, _, tops = scalar_tops()
    fields = {"det_modal_symbols": np.zeros(1), "det_modal_blocks": np.array([gap])}
    if admitted:
        assert replace(tops, **fields).det_gap == gap
    else:
        with pytest.raises(AnomalyError, match="cross-check"):
            replace(tops, **fields)


@pytest.mark.parametrize("residual, admitted", [(BLOCK_RESIDUAL_TOL, True),
                                                (np.nextafter(BLOCK_RESIDUAL_TOL, 1.0), False)])
def test_the_interface_residual_gate_admits_exactly_its_tolerance(residual, admitted):
    args = (from_matrix(np.array([[-1.0]])), np.zeros(1), np.zeros(1), "calculus", residual)
    if admitted:
        assert InterfaceData(*args).residual == residual
    else:
        with pytest.raises(AnomalyError, match="residual"):
            InterfaceData(*args)


def test_a_norm_that_is_not_finite_is_returned_as_it_stands():
    # No inf / inf: a warning is an error in this suite.
    assert _norm(np.array([np.inf, 1.0]), np.zeros(2)) == np.inf
    assert np.isnan(_norm(np.array([np.nan, 1.0])))
    assert _norm(np.zeros(3)) == 0.0
    assert _norm(np.array([3.0]), np.array([-4.0])) == 5.0


def test_an_entry_on_its_budget_passes():
    sol = solve_transmission(build_dirichlet_laplacian_1d(4, 1.0),
                             CylinderGeometry(-0.7, 0.0, 1.3), 1.0, 3.0)
    on = residual_report(replace(sol, route_gap=BLOCK_RESIDUAL_TOL))
    assert on.route_gap == on.budgets["route_gap"] and on.passed
    assert not residual_report(replace(sol, route_gap=np.nextafter(BLOCK_RESIDUAL_TOL, 1.0))).passed


def test_the_eq_budget_is_ten_times_the_particular_estimate_where_that_is_larger():
    # Eight sine periods on mode 0 of m = 1, cut at n_x = 17, estimate 0.15:
    # 10 times that exceeds 5 h^2 max|g| = 0.023 at 33 probe points.
    op = build_dirichlet_laplacian_1d(1, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    forcing = ModalForcing.sine(op, geom, SIDE_PLUS, 0, 8, 1.0)
    sol = solve_transmission(op, geom, 1.0, 3.0, forcing, None, SolveOptions(n_x=17))
    estimate = sol.plus.particular.error_estimate
    assert estimate > 0.1
    assert sol.report.budgets["eq_minus"] == sol.report.budgets["eq_plus"] == 10.0 * estimate


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_the_report_reads_modal_fields_end_values_bit_for_bit(forced):
    # The report's u and u' at every interval end (``_end_traces``, both
    # intervals in one pass) are the solution's own modal_fields there,
    # particular part included, bit for bit; its t2 and t3 at gamma are
    # the sources' closed form of the final coefficients.
    op = build_dirichlet_laplacian_1d(16, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    rng = np.random.default_rng(8)
    forcing = ModalForcing.sine(op, geom, SIDE_PLUS, 3, 2, 1.0) if forced else None
    sol = solve_transmission(op, geom, 1.0, 3.0, forcing, BoundaryData(*rng.normal(size=(4, 16))))
    u_left, du_left, u_right, du_right, t2, t3 = _end_traces(sol)
    for row, sub in enumerate((sol.minus, sol.plus)):
        table = sub.modal_fields(np.array(geom.interval(sub.side)))
        assert np.array_equal(u_left[row], table[0, :, 0])
        assert np.array_equal(du_left[row], table[1, :, 0])
        assert np.array_equal(u_right[row], table[0, :, 1])
        assert np.array_equal(du_right[row], table[1, :, 1])
    parts = (sol.minus.particular, sol.plus.particular)
    a2, a4 = (np.array([sol.minus.alphas[i], sol.plus.alphas[i]]) for i in (1, 3))
    fprime = np.array([parts[0].fprime_right, parts[1].fprime_left])
    f3 = np.array([parts[0].f3_right, parts[1].f3_left])
    assert parts[1].active.size == forced
    want2, want3 = interface_fluxes(sol.operators.both, a2, a4, fprime, f3)
    assert np.array_equal(t2, want2) and np.array_equal(t3, want3)

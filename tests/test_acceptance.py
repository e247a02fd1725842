"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print; every tolerance is pinned here, nothing is calibrated at
run time.
"""

import numpy as np
import pytest

from bitrans import (
    BoundaryData,
    CylinderGeometry,
    InterfaceSources,
    SIDE_MINUS,
    SIDE_PLUS,
    SIDES,
    SolveOptions,
    SubproblemSolution,
    SymbolContext,
    alphas_plus,
    assemble_transmission_operators,
    build_dirichlet_laplacian_1d,
    compare,
    convergence_study,
    direct_solve,
    f_components,
    f_total,
    fundamental_system,
    leading_order_interface,
    manufactured_forced,
    manufactured_homogeneous,
    phi_tilde_plus,
    positivity_scan,
    solve_interface_calculus,
    solve_transmission,
    spectral_mapping_gap,
    u_delta,
    v_delta,
)
from dense_reference import (
    apply_function,
    assemble_dense_operators,
    generator_matrix,
    semigroup,
    solve_block,
)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_hypothesis_surrogates():
    worst_eig, worst_sq, worst_norm, worst_law = 0.0, 0.0, 0.0, 0.0
    for m in (1, 3, 50):
        op = build_dirichlet_laplacian_1d(m, 1.0)
        h = 1.0 / (m + 1)
        k = np.arange(1, m + 1)
        exact = np.sort(-(4.0 / h**2) * np.sin(k * np.pi / (2 * (m + 1))) ** 2)
        worst_eig = max(worst_eig, float(np.max(np.abs(op.eigenvalues - exact)
                                                / np.abs(exact))))
        mmat = generator_matrix(op)
        sq = np.linalg.norm(mmat @ mmat + op.matrix, 2)
        worst_sq = max(worst_sq, sq / np.linalg.norm(op.matrix, 2))
        for t in (0.0, 0.1, 1.0, 10.0):
            worst_norm = max(worst_norm, np.linalg.norm(semigroup(op, t), 2))
        law = np.linalg.norm(semigroup(op, 0.3) @ semigroup(op, 0.7)
                             - semigroup(op, 1.0), 2)
        worst_law = max(worst_law, law)
    ok = (worst_eig <= 1e-10 and worst_sq <= 1e-10
          and worst_norm <= 1.0 and worst_law <= 1e-12)
    _report("criterion 1: hypothesis surrogates (m in {1,3,50})", ok,
            f"eig {worst_eig:.2e}, M^2+A {worst_sq:.2e}, "
            f"max||e^tM|| {worst_norm:.15f}, law {worst_law:.2e}")


def test_criterion_2_scalar_symbol_suite():
    ok_values = (abs(u_delta(1.0, 1.0) - 0.1289058) <= 1e-6
                 and abs(v_delta(1.0, 1.0) - 1.6004236) <= 1e-6)
    rng = np.random.default_rng(2024)
    worst_id = 0.0
    for _ in range(20):
        delta = rng.uniform(0.05, 5.0)
        x = 10.0 ** rng.uniform(-4, 4)
        f1, f2, f3, g = f_components(delta, x)
        worst_id = max(worst_id, abs(f1 * f3 - f2**2 - g) / max(f1 * f3, abs(g)))
    contexts = [
        SymbolContext(1.0, 1.0, 1.0, 1.0),
        SymbolContext(2.0, 3.0, 5.0, 0.1),
        SymbolContext(10.0, 0.1, 1.0, 1e4),   # k+/k- = 1e4, c/d = 1e2
        SymbolContext(0.37, 1.4, 2.2, 0.9),
        SymbolContext(5.0, 5.0, 1e-2, 1e2),
    ]
    grid = np.logspace(-6, 6, 121)
    scans = [positivity_scan(ctx, grid) for ctx in contexts]
    ok = ok_values and worst_id <= 1e-10 and all(s.all_positive for s in scans)
    _report("criterion 2: scalar-symbol suite", ok,
            f"identity {worst_id:.2e}, min over scans "
            f"{min(s.min_value for s in scans):.3e}")


def test_criterion_3_spectral_mapping_consistency():
    op = build_dirichlet_laplacian_1d(8, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    km, kp = 1.0, 3.0
    dense = assemble_dense_operators(op, geom, km, kp)
    pairs = [
        (dense.minus.U, lambda mu: u_delta(geom.c, -mu)),
        (dense.plus.U, lambda mu: u_delta(geom.d, -mu)),
        (dense.minus.V, lambda mu: v_delta(geom.c, -mu)),
        (dense.plus.V, lambda mu: v_delta(geom.d, -mu)),
    ]
    for i in range(3):
        pairs.append((getattr(dense, f"P{i + 1}_minus") / km,
                      lambda mu, i=i: f_components(geom.c, -mu)[i]))
        pairs.append((getattr(dense, f"P{i + 1}_plus") / kp,
                      lambda mu, i=i: f_components(geom.d, -mu)[i]))
    worst = 0.0
    for assembled, symbol in pairs:
        target = apply_function(op, symbol)
        worst = max(worst, np.linalg.norm(assembled - target, 2)
                    / np.linalg.norm(target, 2))
    # The same symbols read off the per-mode fundamental system.
    tops = assemble_transmission_operators(op, geom, km, kp)
    per_mode = spectral_mapping_gap(tops, fundamental_system(tops))
    _report("criterion 3: spectral-mapping consistency (m=8)",
            worst <= 1e-11 and per_mode <= 1e-11,
            f"worst relative gap {worst:.2e}, per mode {per_mode:.2e}")


def test_criterion_4_determinant_identities():
    op = build_dirichlet_laplacian_1d(8, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    km, kp = 1.0, 3.0
    tops = assemble_transmission_operators(op, geom, km, kp)
    dense = assemble_dense_operators(op, geom, km, kp)
    worst_block = 0.0
    for ops, k, (p1, p2, p3) in (
        (dense.minus, km, (dense.P1_minus, dense.P2_minus, dense.P3_minus)),
        (dense.plus, kp, (dense.P1_plus, dense.P2_plus, dense.P3_plus)),
    ):
        lhs = p1 @ p3 - p2 @ p2
        rhs = 16.0 * k**2 * ops.u_inv(ops.v_inv(ops.E2))
        scale = max(np.linalg.norm(lhs, 2), np.linalg.norm(rhs, 2), 1.0)
        worst_block = max(worst_block, np.linalg.norm(lhs - rhs, 2) / scale)
    det_scale = 1.0 + np.max(np.abs(tops.det_modal_symbols))
    det_gap = np.max(np.abs(tops.det_modal_symbols - dense.det_modal_assembled)) / det_scale
    m = op.m
    mmat = generator_matrix(op)
    adj = np.block([[-dense.p3_sum, dense.p2_diff],
                    [-mmat @ dense.p2_diff, mmat @ dense.p1_sum]])
    det_op = dense.det_operator()
    target = np.block([[det_op, np.zeros((m, m))], [np.zeros((m, m)), det_op]])
    adj_gap = (np.linalg.norm(dense.Lambda @ adj - target, 2)
               / np.linalg.norm(target, 2))
    ok = worst_block <= 1e-10 and det_gap <= 1e-10 and adj_gap <= 1e-10
    _report("criterion 4: determinant identities (m=8)", ok,
            f"block {worst_block:.2e}, per-mode {det_gap:.2e}, adjugate {adj_gap:.2e}")


def test_criterion_5_two_route_agreement():
    op = build_dirichlet_laplacian_1d(16, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    tops = assemble_transmission_operators(op, geom, 1.0, 3.0)
    dense = assemble_dense_operators(op, geom, 1.0, 3.0)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        src = InterfaceSources(rng.standard_normal(16), rng.standard_normal(16))
        a1, a2 = solve_block(dense, src)
        b = solve_interface_calculus(tops, src)
        scale = 1.0 + max(np.max(np.abs(a1)), np.max(np.abs(a2)))
        worst = max(worst, max(np.max(np.abs(a1 - b.psi1)),
                               np.max(np.abs(a2 - b.psi2))) / scale)
    zero = InterfaceSources(np.zeros(16), np.zeros(16))
    za1, za2 = solve_block(dense, zero)
    zb = solve_interface_calculus(tops, zero)
    zeros_ok = (np.all(za1 == 0) and np.all(za2 == 0)
                and np.all(zb.psi1 == 0) and np.all(zb.psi2 == 0))
    ok = worst <= 1e-10 and zeros_ok
    _report("criterion 5: two-route interface agreement (m=16)", ok,
            f"worst gap {worst:.2e}, zero-source exact: {zeros_ok}")


def test_criterion_6_exact_homogeneous_reproduction():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    case = manufactured_homogeneous(op, geom, [0, 1, 2],
                                    [0.8, -0.5, 0.3], [-0.4, 0.6, 0.2])
    sol = solve_transmission(op, geom, 1.0, 2.5, case.forcing(),
                             case.boundary_data(), SolveOptions(route="both"))
    p1, p2 = case.psi()
    psi_err = max(np.max(np.abs(sol.interface.psi1 - p1)),
                  np.max(np.abs(sol.interface.psi2 - p2)))
    field_err = 0.0
    for side in SIDES:
        xs = geom.grid(side, 33)
        field_err = max(field_err, float(np.max(np.abs(
            sol.field(side, xs, 0) - case.field(side, xs, 0)))))
    r = sol.report
    resid = max(r.bc_1, r.bc_2, r.bc_3, r.bc_4, r.tc1_u, r.tc1_du,
                r.tc2_flux2, r.tc2_flux3)
    ok = psi_err <= 1e-9 and field_err <= 1e-9 and resid <= 1e-9
    _report("criterion 6: exact homogeneous reproduction", ok,
            f"psi {psi_err:.2e}, field {field_err:.2e}, residuals {resid:.2e}")


def test_criterion_7_forced_manufactured_convergence():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    case = manufactured_forced(op, geom, 1.0, 3.0, 2,
                               [0.5, -1.2, 0.8, 0.3, -0.6], psi1=0.3, psi2=-0.2)
    levels = [65, 129, 257]
    rep = convergence_study(case, "representation", levels)
    direct = convergence_study(case, "direct", levels)
    gaps = []
    for n in levels:
        sol = solve_transmission(op, geom, 1.0, 3.0, case.forcing(),
                                 case.boundary_data(), SolveOptions(n_x=n))
        oracle = direct_solve(op, geom, 1.0, 3.0, case.forcing(),
                              case.boundary_data(), n_x=n)
        gaps.append(compare(sol, oracle).sup)
    hs = [1.0 / (n - 1) for n in levels]
    gap_rate = float(np.polyfit(np.log(hs), np.log(gaps), 1)[0])
    # The representation's only discretized part is spectrally accurate, so
    # its error sits at the floor on every level; the gap converges as the oracle.
    ok = rep.floor and direct.fitted_rate >= 1.8 and gap_rate >= 1.8
    _report("criterion 7: forced manufactured convergence", ok,
            f"representation errors {max(rep.errors):.2e} (floor {rep.floor}), "
            f"direct {direct.fitted_rate:.2f}, gap {gap_rate:.2f}")


def test_criterion_8_reflection_symmetry():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.8, 0.0, 0.8)
    rng = np.random.default_rng(88)
    phi1, phi2 = rng.normal(size=(2, 3))
    bc = BoundaryData(phi1, phi2, phi1, -phi2)
    sol = solve_transmission(op, geom, 2.0, 2.0, None, bc)
    psi2_ratio = np.max(np.abs(sol.interface.psi2)) / (
        1e-300 + np.max(np.abs(sol.interface.psi1)))
    offsets = np.linspace(0.05, 0.75, 16)
    um = sol.field(SIDE_MINUS, geom.gamma - offsets, 0)
    up = sol.field(SIDE_PLUS, geom.gamma + offsets, 0)
    refl = float(np.max(np.abs(um - up)))
    ok = psi2_ratio <= 1e-10 and refl <= 1e-9
    _report("criterion 8: reflection symmetry", ok,
            f"|psi2|/|psi1| {psi2_ratio:.2e}, reflection {refl:.2e}")


def test_criterion_9_leading_order_asymptotics():
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
        den = max(np.max(np.abs(sol.interface.psi1)),
                  np.max(np.abs(sol.interface.psi2)))
        gaps.append(float(num / den))
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = decreasing and gaps[-1] <= 1e-6
    _report("criterion 9: leading-order asymptotics", ok,
            "gaps " + ", ".join(f"{g:.2e}" for g in gaps))


def test_criterion_10_uniqueness_and_perturbation():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    sol = solve_transmission(op, geom, 1.0, 2.0, options=SolveOptions(route="both"))
    r = sol.report
    zero_ok = (np.all(sol.interface.psi1 == 0) and np.all(sol.interface.psi2 == 0)
               and all(getattr(r, key) == 0.0 for key in (
                   "eq_minus", "eq_plus", "bc_1", "bc_2", "bc_3", "bc_4",
                   "tc1_u", "tc1_du", "tc2_flux2", "tc2_flux3", "route_gap")))
    rng = np.random.default_rng(10)
    bc = BoundaryData(*rng.normal(size=(4, 3)))
    sol = solve_transmission(op, geom, 1.0, 2.0, None, bc)
    eps = np.array([2e-5, -1e-5, 3e-5])
    q = op.eigenvectors
    pt_p = phi_tilde_plus(sol.operators.plus, q.T @ bc.phi1_plus, q.T @ bc.phi2_plus,
                          np.zeros(3), np.zeros(3))
    al = alphas_plus(sol.operators.plus, q.T @ (sol.interface.psi1 + eps),
                     sol.interface.psi2_hat, pt_p)
    plus_pert = SubproblemSolution(SIDE_PLUS, geom, sol.operator, al)
    recovered = plus_pert.evaluate(geom.gamma, 0) - sol.field(SIDE_MINUS, geom.gamma, 0)[:, 0]
    inj_err = float(np.max(np.abs(recovered - eps)))
    ok = zero_ok and inj_err <= 1e-12
    _report("criterion 10: uniqueness / perturbation injection", ok,
            f"zero case exact: {zero_ok}, injection error {inj_err:.2e}")

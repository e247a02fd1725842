"""The modal solve path against the dense verification build."""

import numpy as np
import pytest

import bitrans.transmission as transmission
import bitrans.verification as verification
from bitrans import (
    AnomalyError,
    BoundaryData,
    CylinderGeometry,
    DenseOperators,
    InterfaceSources,
    SolveOptions,
    assemble_dense_operators,
    assemble_transmission_operators,
    build_dirichlet_laplacian_1d,
    solve_interface_block,
    solve_interface_calculus,
    solve_transmission,
    spectral_mapping_gap,
)

GEOM = CylinderGeometry(-0.7, 0.0, 1.3)


def _forbidden(name):
    def raise_(*args, **kwargs):
        raise AssertionError(f"{name} called on the default solve path")
    return raise_


def test_default_route_forms_no_dense_matrix(monkeypatch):
    op = build_dirichlet_laplacian_1d(512, 1.0)
    rng = np.random.default_rng(1)
    bc = BoundaryData(*rng.standard_normal((4, 512)))
    monkeypatch.setattr(transmission, "assemble_dense_operators",
                        _forbidden("assemble_dense_operators"))
    monkeypatch.setattr(verification, "assemble_dense_operators",
                        _forbidden("assemble_dense_operators"))
    monkeypatch.setattr(verification, "lu_factor", _forbidden("lu_factor"))
    monkeypatch.setattr(DenseOperators, "max_commutator", _forbidden("max_commutator"))
    monkeypatch.setattr(verification, "generator_matrix", _forbidden("generator_matrix"))
    monkeypatch.setattr(np.linalg, "cond", _forbidden("np.linalg.cond"))
    monkeypatch.setattr(np, "eye", _forbidden("np.eye"))
    sol = solve_transmission(op, GEOM, 1.0, 3.0, None, bc)
    assert sol.interface.route == "calculus" and sol.reference is None
    assert np.all(np.isfinite(sol.interface.psi1)) and np.all(np.isfinite(sol.interface.psi2))
    assert all(np.isfinite(v) for v in sol.operators.conditions.values())


def test_default_route_is_calculus():
    assert SolveOptions().route == "calculus"
    op = build_dirichlet_laplacian_1d(4, 1.0)
    sol = solve_transmission(op, GEOM, 1.0, 3.0)
    assert sol.interface.route == "calculus"
    assert sol.route_gap == 0.0 and sol.reference is None


@pytest.mark.parametrize("m", [8, 64, 256])
def test_modal_and_dense_agree(m):
    op = build_dirichlet_laplacian_1d(m, 1.0)
    tops = assemble_transmission_operators(op, GEOM, 1.0, 3.0)
    dense = assemble_dense_operators(op, GEOM, 1.0, 3.0)
    rng = np.random.default_rng(m)
    src = InterfaceSources(rng.standard_normal(m), rng.standard_normal(m), np.zeros(m))
    a = solve_interface_block(dense, src)
    b = solve_interface_calculus(tops, src)
    scale = 1.0 + max(np.max(np.abs(a.psi1)), np.max(np.abs(a.psi2)))
    gap = max(np.max(np.abs(a.psi1 - b.psi1)), np.max(np.abs(a.psi2 - b.psi2)))
    assert gap <= 1e-10 * scale
    for side, key in ((dense.minus, "minus"), (dense.plus, "plus")):
        for name, mat in (("U", side.U), ("V", side.V)):
            assert tops.conditions[name + key] == pytest.approx(np.linalg.cond(mat), rel=1e-8)
    assert tops.conditions["Lambda"] == pytest.approx(np.linalg.cond(dense.Lambda), rel=1e-8)


def test_both_route_keeps_modal_solution_and_records_gap():
    op = build_dirichlet_laplacian_1d(16, 1.0)
    rng = np.random.default_rng(4)
    bc = BoundaryData(*rng.standard_normal((4, 16)))
    modal = solve_transmission(op, GEOM, 1.0, 3.0, None, bc)
    both = solve_transmission(op, GEOM, 1.0, 3.0, None, bc, SolveOptions(route="both"))
    assert both.interface.route == "calculus"
    assert np.array_equal(both.interface.psi1, modal.interface.psi1)
    assert np.array_equal(both.interface.psi2, modal.interface.psi2)
    assert 0.0 < both.route_gap <= 1e-10
    assert isinstance(both.reference, DenseOperators)
    assert spectral_mapping_gap(both.reference) <= 1e-11
    # eq_* is left out: its 33-point probe grid does not resolve m = 16.
    assert all(getattr(both.report, key) <= budget for key, budget in both.report.budgets.items()
               if not key.startswith("eq_"))


def test_det_gap_takes_the_dense_gap_when_built():
    op = build_dirichlet_laplacian_1d(8, 1.0)
    rng = np.random.default_rng(2)
    bc = BoundaryData(*rng.standard_normal((4, 8)))
    modal = solve_transmission(op, GEOM, 1.0, 3.0, None, bc)
    both = solve_transmission(op, GEOM, 1.0, 3.0, None, bc, SolveOptions(route="both"))
    det = both.operators.det_modal_symbols
    dense_gap = (np.max(np.abs(det - both.reference.det_modal_assembled))
                 / (1.0 + np.max(np.abs(det))))
    assert modal.report.det_gap == both.operators.det_gap
    assert both.report.det_gap == max(both.operators.det_gap, dense_gap)
    assert both.report.det_gap <= 1e-10



def test_side_operators_take_no_svd(monkeypatch):
    # The singularity guard reads the LU pivots and the exact per-mode
    # conditions; an SVD of U or V would cost O(m^3) for nothing.
    monkeypatch.setattr(np.linalg, "cond", _forbidden("np.linalg.cond"))
    monkeypatch.setattr(np.linalg, "svd", _forbidden("np.linalg.svd"))
    op = build_dirichlet_laplacian_1d(16, 1.0)
    side = verification.build_side_operators(op, GEOM.c, "minus")
    rhs = np.random.default_rng(5).standard_normal(16)
    np.testing.assert_allclose(side.U @ side.u_inv(rhs), rhs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(side.V @ side.v_inv(rhs), rhs, rtol=0, atol=1e-12)


def test_zero_pivot_in_side_factors_is_an_anomaly(monkeypatch):
    real = verification.lu_factor

    def zero_pivot(mat):
        lu, piv = real(mat)
        lu[3, 3] = 0.0
        return lu, piv

    monkeypatch.setattr(verification, "lu_factor", zero_pivot)
    with pytest.raises(AnomalyError, match="U_minus numerically singular"):
        verification.build_side_operators(build_dirichlet_laplacian_1d(8, 1.0), GEOM.c, "minus")


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_singular_side_symbol_is_an_anomaly(monkeypatch, bad):
    real = verification.v_delta

    def broken(delta, z):
        vals = real(delta, z)
        vals[2] = bad
        return vals

    monkeypatch.setattr(verification, "v_delta", broken)
    with pytest.raises(AnomalyError, match="V_plus numerically singular"):
        verification.build_side_operators(build_dirichlet_laplacian_1d(8, 1.0), GEOM.d, "plus")

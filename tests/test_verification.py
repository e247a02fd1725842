"""The per-mode fundamental-system reference and the routes that use it."""

from dataclasses import replace
from math import comb
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitrans.transmission as transmission
import bitrans.verification as verification
from bitrans import (
    AnomalyError,
    BoundaryData,
    CylinderGeometry,
    FundamentalSystem,
    InterfaceSources,
    ModalForcing,
    SIDE_MINUS,
    SIDE_PLUS,
    SolveOptions,
    assemble_transmission_operators,
    build_dirichlet_laplacian_1d,
    fundamental_solve,
    solve_interface_calculus,
    solve_particular,
    solve_transmission,
    spectral_mapping_gap,
)
from bitrans.cli import main
from bitrans.config import build_case, build_section, load_config
from dense_reference import assemble_dense_operators, fd_particular, solve_block

GEOM = CylinderGeometry(-0.7, 0.0, 1.3)
CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def _forbidden(name):
    def raise_(*args, **kwargs):
        raise AssertionError(f"{name} called on the default solve path")
    return raise_


def test_default_route_forms_no_dense_matrix(monkeypatch):
    op = build_dirichlet_laplacian_1d(512, 1.0)
    rng = np.random.default_rng(1)
    bc = BoundaryData(*rng.standard_normal((4, 512)))
    for module in (transmission, verification):
        for name in ("fundamental_solve", "fundamental_system"):
            monkeypatch.setattr(module, name, _forbidden(name))
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
    src = InterfaceSources(rng.standard_normal(m), rng.standard_normal(m))
    a1, a2 = solve_block(dense, src)
    b = solve_interface_calculus(tops, src)
    scale = 1.0 + max(np.max(np.abs(a1)), np.max(np.abs(a2)))
    gap = max(np.max(np.abs(a1 - b.psi1)), np.max(np.abs(a2 - b.psi2)))
    assert gap <= 1e-10 * scale
    for side, key in ((dense.minus, "minus"), (dense.plus, "plus")):
        for name, mat in (("U", side.U), ("V", side.V)):
            assert tops.conditions[name + key] == pytest.approx(np.linalg.cond(mat),
                                                                rel=1e-8, abs=0.0)
    assert tops.conditions["Lambda"] == pytest.approx(np.linalg.cond(dense.Lambda),
                                                       rel=1e-8, abs=0.0)


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
    assert isinstance(both.reference, FundamentalSystem)
    assert spectral_mapping_gap(both.operators, both.reference) <= 1e-11
    assert all(getattr(both.report, key) <= budget for key, budget in both.report.budgets.items())
    assert both.report.eq_minus == both.report.eq_plus == 0.0  # unforced: nothing to measure


def test_det_gap_takes_the_dense_gap_when_built():
    # On "both" det_gap also takes the gap to the determinant formed from
    # the fundamental-system symbols.
    op = build_dirichlet_laplacian_1d(8, 1.0)
    rng = np.random.default_rng(2)
    bc = BoundaryData(*rng.standard_normal((4, 8)))
    modal = solve_transmission(op, GEOM, 1.0, 3.0, None, bc)
    both = solve_transmission(op, GEOM, 1.0, 3.0, None, bc, SolveOptions(route="both"))
    det = both.operators.det_modal_symbols
    ref_gap = np.max(np.abs(det - both.reference.det_modal)) / (1.0 + np.max(np.abs(det)))
    assert modal.report.det_gap == both.operators.det_gap
    assert both.report.det_gap == max(both.operators.det_gap, ref_gap)
    assert both.report.det_gap <= 1e-10
    dense = assemble_dense_operators(op, GEOM, 1.0, 3.0)
    assert np.max(np.abs(dense.det_modal_assembled - both.reference.det_modal)) <= 1e-10 * (
        1.0 + np.max(np.abs(det)))


def test_one_sided_determinant_is_minus_u_v():
    op = build_dirichlet_laplacian_1d(64, 1.0)
    tops = assemble_transmission_operators(op, GEOM, 1.0, 3.0)
    ref = verification.fundamental_system(tops)
    for side, read in ((tops.minus, ref.minus), (tops.plus, ref.plus)):
        np.testing.assert_allclose(read[4], -side.u * side.v, rtol=1e-13)
        for got, want in zip(read[:4], (side.f[0], side.f[1], side.f[1], side.f[2])):
            np.testing.assert_allclose(got, want, rtol=1e-12)


# --- 60-digit truth for the 8 x 8 solve --------------------------------------


def _mp_rows(g, delta, x_lo):
    """mpmath rows of u, u', t2, t3 for the basis e^{g s1}, s1 e^{g s1}, e^{g s2}, s2 e^{g s2}.

    Built from the Leibniz rule
    d^k (s^p e^{g s}) = sum_i C(k, i) p!/(p-i)! s^(p-i) g^(k-i) e^{g s},
    with d/dx = -d/ds2, and the flux rows as differences of derivative rows.
    """
    def deriv(p, s, k):
        return sum(comb(k, i) * (1 if i == 0 else p) * s ** (p - i) * g ** (k - i)
                   for i in range(min(k, p) + 1)) * mpmath.exp(g * s)

    s1 = mpmath.mpf(0) if x_lo else delta
    s2 = delta - s1
    d = [[deriv(0, s1, k), deriv(1, s1, k), (-1) ** k * deriv(0, s2, k),
          (-1) ** k * deriv(1, s2, k)] for k in range(4)]
    return d[0], d[1], [d[2][i] - g**2 * d[0][i] for i in range(4)], \
        [d[3][i] - g**2 * d[1][i] for i in range(4)]


def _mp_interface(g, c, d, km, kp, phi, traces):
    """psi1, psi2 of one mode from a 60-digit solve of the 8 x 8 system."""
    with mpmath.workdps(60):
        g, c, d, km, kp = (mpmath.mpf(float(v)) for v in (g, c, d, km, kp))
        phi1m, phi2m, phi1p, phi2p = (mpmath.mpf(float(v)) for v in phi)
        fpa, fpm, f3m, fpp, f3p, fpb = (mpmath.mpf(float(v)) for v in traces)
        ma, mg = _mp_rows(g, c, True), _mp_rows(g, c, False)
        pg, pb = _mp_rows(g, d, True), _mp_rows(g, d, False)
        z = [mpmath.mpf(0)] * 4
        rows = [ma[0] + z, ma[1] + z, z + pb[0], z + pb[1],
                mg[0] + [-v for v in pg[0]], mg[1] + [-v for v in pg[1]],
                [km * v for v in mg[2]] + [-kp * v for v in pg[2]],
                [km * v for v in mg[3]] + [-kp * v for v in pg[3]]]
        rhs = [phi1m, phi2m - fpa, phi1p, phi2p - fpb, 0, fpp - fpm, 0,
               kp * (f3p - g**2 * fpp) - km * (f3m - g**2 * fpm)]
        x = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(rhs))
        psi1 = sum(mg[0][i] * x[i] for i in range(4))
        psi2 = sum(mg[1][i] * x[i] for i in range(4)) + fpm
        return float(psi1), float(psi2)


SHORT_FORCED = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="fundamental_solve is no truth for forcing whose traces grow like 1/c: mode 1's "
           "psi1 comes out of coefficients that cancel to 1e-14 of their size (ROADMAP item 5)")


@pytest.mark.parametrize("m, c, forced", [
    (8, 0.7, False), (64, 0.7, False), (8, 1e-3, False), (8, 1e-5, False), (8, 1e-7, False),
    (8, 0.7, True), (64, 0.7, True),
    *(pytest.param(8, c, True, marks=SHORT_FORCED) for c in (1e-3, 1e-5, 1e-7))])
def test_fundamental_solve_matches_60_digit_solve(m, c, forced):
    # The standard case (c = 0.7, d = 1.3) and short intervals (-c, 0, 1);
    # "forced" adds a sine forcing on both sides, so every particular trace
    # enters. The short forced intervals are pinned as strict xfails: there a
    # mode-1 sine makes |psi2| ~ 1e8 |psi1| at c = 1e-7, and mode 1's psi1 reads
    # 1.3e-11 relative off the 60-digit solve at c = 1e-3, 5.0e-5 at c = 1e-5
    # and -159.74 against 10.659 at c = 1e-7.
    geom = GEOM if c == 0.7 else CylinderGeometry(-c, 0.0, 1.0)
    op = build_dirichlet_laplacian_1d(m, 1.0)
    tops = assemble_transmission_operators(op, geom, 1.0, 3.0)
    phi = np.random.default_rng(0).standard_normal((4, m))
    if forced:
        parts = [solve_particular(op.eigenvalues, geom, side,
                                  ModalForcing.sine(op, geom, side, min(1, m - 1), 1, 1.5))
                 for side in (SIDE_MINUS, SIDE_PLUS)]
    else:
        zero = ModalForcing.zero(m, geom)
        parts = [solve_particular(op.eigenvalues, geom, side, zero)
                 for side in (SIDE_MINUS, SIDE_PLUS)]
    pm, pp = parts
    psi1, psi2, residual = fundamental_solve(tops, phi, pm, pp)
    assert residual <= 1e-15
    for j, g in enumerate(op.generator_eigenvalues):
        traces = (pm.fprime_left[j], pm.fprime_right[j], pm.f3_right[j],
                  pp.fprime_left[j], pp.f3_left[j], pp.fprime_right[j])
        want1, want2 = _mp_interface(g, geom.c, geom.d, 1.0, 3.0, phi[:, j], traces)
        assert abs(psi1[j] - want1) <= 1e-13 * abs(want1), (j, psi1[j], want1)
        assert abs(psi2[j] - want2) <= 1e-13 * abs(want2), (j, psi2[j], want2)


# --- forcing, singular systems, properties -----------------------------------


@pytest.mark.parametrize("side", [SIDE_MINUS, SIDE_PLUS])
def test_one_sided_forcing_route_gap(side):
    op = build_dirichlet_laplacian_1d(8, 1.0)
    bc = BoundaryData(*np.random.default_rng(3).standard_normal((4, 8)))
    forcing = ModalForcing.sine(op, GEOM, side, 1, 1, 1.5)
    sol = solve_transmission(op, GEOM, 1.0, 3.0, forcing, bc, SolveOptions(route="both"))
    assert sol.route_gap <= 1e-13


@pytest.mark.parametrize("particular", ["chebyshev", "finite-difference"])
def test_two_sided_forcing_route_gap_and_exact_pair(particular, monkeypatch):
    config = load_config(CONFIGS / "forced_convergence.yaml")
    op = build_section(config)
    forcing, boundary, case = build_case(config, op)
    assert not forcing.vanishes(SIDE_MINUS) and not forcing.vanishes(SIDE_PLUS)
    if particular == "finite-difference":
        monkeypatch.setattr(transmission, "solve_particular", fd_particular)
    # The pair differs from the exact one by the particular part's error
    # only. Chebyshev: rounding at both caps. Finite differences: 6.8e-9 at
    # n_x = 129, falling 16-fold per halving of h.
    errors = []
    for n_x in (config.solver.n_x, 2 * config.solver.n_x - 1):
        sol = solve_transmission(op, config.geometry, config.k_minus, config.k_plus, forcing,
                                 boundary, SolveOptions(route="both", n_x=n_x))
        assert sol.route_gap <= 1e-13
        errors.append(max(np.max(np.abs(got - want)) for got, want in
                          zip((sol.interface.psi1, sol.interface.psi2), case.psi())))
    if particular == "chebyshev":
        assert max(errors) <= 1e-14
    else:
        assert errors[0] <= 1e-8 and errors[1] <= errors[0] / 10.0


def _singular(tops):
    # With both diffusivities 0 the two flux rows of every mode vanish.
    return replace(tops, k_minus=0.0, k_plus=0.0)


def test_singular_per_mode_system_is_an_anomaly():
    op = build_dirichlet_laplacian_1d(8, 1.0)
    tops = assemble_transmission_operators(op, GEOM, 1.0, 3.0)
    zero = ModalForcing.zero(8, GEOM)
    parts = [solve_particular(op.eigenvalues, GEOM, side, zero)
             for side in (SIDE_MINUS, SIDE_PLUS)]
    with pytest.raises(AnomalyError, match="singular per-mode interface system"):
        fundamental_solve(_singular(tops), np.ones((4, 8)), *parts)


def test_singular_per_mode_system_exits_4(monkeypatch, tmp_path, capsys):
    real = transmission.assemble_transmission_operators
    monkeypatch.setattr(transmission, "assemble_transmission_operators",
                        lambda *args: _singular(real(*args)))
    config = CONFIGS / "random_verify.yaml"
    assert main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "anomaly: singular per-mode interface system" in err and "Traceback" not in err


@settings(max_examples=25)
@given(m=st.integers(1, 64), c=st.floats(0.1, 3.0), d=st.floats(0.1, 3.0),
       k_minus=st.floats(1e-2, 1e2), k_plus=st.floats(1e-2, 1e2),
       seed=st.integers(0, 2**32 - 1))
def test_both_route_property(m, c, d, k_minus, k_plus, seed):
    rng = np.random.default_rng(seed)
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-c, 0.0, d)
    side = (SIDE_MINUS, SIDE_PLUS)[rng.integers(2)]
    forcing = ModalForcing.sine(op, geom, side, int(rng.integers(m)), 1, rng.normal())
    sol = solve_transmission(op, geom, k_minus, k_plus, forcing,
                             BoundaryData(*rng.normal(size=(4, m))), SolveOptions(route="both"))
    report = sol.report
    assert report.route_gap <= 1e-10
    assert spectral_mapping_gap(sol.operators, sol.reference) <= 1e-11
    # eq_* is left out. It central-differences the particular part's third
    # derivative on the probe grid, which errs by about (k h)^2 / 6 for a
    # sine of axial wavenumber k = pi / length, while its budget
    # 5 h^2 max|g| does not see k: at m = 1, c = d = 0.25 it reads 1.5e-3
    # against 8.6e-4 on a right answer. Every other entry holds.
    over = {key for key, budget in report.budgets.items()
            if not key.startswith("eq_") and getattr(report, key) > budget}
    assert not over, {key: getattr(report, key) for key in over}

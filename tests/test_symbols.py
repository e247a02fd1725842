import numpy as np
import pytest

from bitrans import (
    BranchCutError,
    EvaluationError,
    PositivityScan,
    SymbolContext,
    f_components,
    f_tilde,
    f_total,
    interval_symbols,
    positivity_scan,
    u_delta,
    v_delta,
)

# Direct scalar evaluations used as the reference throughout this module.
U11 = 1.0 - np.exp(-2.0) - 2.0 * np.exp(-1.0)   # u_1(1)
V11 = 1.0 - np.exp(-2.0) + 2.0 * np.exp(-1.0)   # v_1(1)


def test_u_v_at_one():
    assert u_delta(1.0, 1.0) == pytest.approx(0.1289058, abs=1e-6)
    assert v_delta(1.0, 1.0) == pytest.approx(1.6004236, abs=1e-6)
    assert u_delta(1.0, 1.0) == pytest.approx(U11, rel=1e-14, abs=0.0)
    assert v_delta(1.0, 1.0) == pytest.approx(V11, rel=1e-14, abs=0.0)


def test_u_vanishes_at_zero_limit():
    assert abs(u_delta(1.0, 1e-30)) < 1e-14


def test_branch_cut_rejected():
    # The symbols live on the positive real axis: the cut and every complex
    # z, on the cut or off it, are rejected.
    for bad in (-1.0, 0.0, complex(-2.0, 0.0), 2.0 + 1.0j, np.array([1.0, 2.0 + 0.0j])):
        with pytest.raises(BranchCutError):
            u_delta(1.0, bad)
        with pytest.raises(BranchCutError):
            v_delta(0.5, bad)
        with pytest.raises(BranchCutError):
            interval_symbols(0.5, bad)


def test_real_axis_returns_real():
    val = u_delta(0.7, 3.2)
    assert np.isrealobj(val)


def test_small_argument_asymptotics():
    # u_delta(x) ~ (delta sqrt(x))^3 / 3 and v_delta(x) ~ 4 delta sqrt(x).
    for delta, x in ((0.1, 1e-6), (1.0, 1e-8)):
        eps = delta * np.sqrt(x)
        assert u_delta(delta, x) == pytest.approx(eps**3 / 3.0, rel=1e-3, abs=0.0)
        assert v_delta(delta, x) == pytest.approx(4.0 * eps, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("delta", [1.0, 0.3])
def test_u_delta_full_relative_accuracy_against_mpmath(delta):
    # eps = delta sqrt(z) over 1e-8..1e2, with points on both sides of the
    # switch from the series to the expm1 form at eps = 1.
    import mpmath

    eps = np.concatenate([np.logspace(-8, 2, 101),
                          [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 0.999, 1.001]])
    z = (eps / delta) ** 2
    values = u_delta(delta, z)
    with mpmath.workdps(50):
        for e, value in zip(delta * np.sqrt(z), values):
            e = mpmath.mpf(float(e))
            exact = -mpmath.expm1(-2 * e) - 2 * e * mpmath.exp(-e)
            assert abs(value - exact) <= 1e-14 * exact, float(e)


@pytest.mark.parametrize("delta", [1.0, 0.3])
def test_f_components_full_relative_accuracy_against_mpmath(delta):
    # f1, f2, f3 and g over eps = delta sqrt(z) in 1e-8..1e2 and next to the
    # series switch of u_delta at eps = 1. f3 holds (1 - e^{-eps})^2 / u,
    # which loses 1e-16 / eps relative when 1 - e^{-eps} is a subtraction.
    import mpmath

    eps = np.concatenate([np.logspace(-8, 2, 101),
                          [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 0.999, 1.001]])
    z = (eps / delta) ** 2
    values = np.array(f_components(delta, z))
    with mpmath.workdps(50):
        for i, e in enumerate(delta * np.sqrt(z)):
            e = mpmath.mpf(float(e))
            w = mpmath.exp(-e)
            one_minus_w2 = -mpmath.expm1(-2 * e)
            u = one_minus_w2 - 2 * e * w
            v = one_minus_w2 + 2 * e * w
            exact = ((1 + w) ** 2 / u + (1 - w) ** 2 / v,
                     (1 / u + 1 / v) * one_minus_w2,
                     (1 - w) ** 2 / u + (1 + w) ** 2 / v,
                     16 * w * w / (u * v))
            for name, value, ref in zip(("f1", "f2", "f3", "g"), values[:, i], exact):
                assert abs(value - ref) <= 1e-14 * ref, (name, float(e))


def test_f_components_reference_values():
    f1, f2, f3, g = f_components(1.0, 1.0)
    assert f1 == pytest.approx(14.7649, abs=2e-4)
    assert f2 == pytest.approx(7.2480, abs=2e-4)
    assert f3 == pytest.approx(4.2689, abs=2e-4)
    assert g == pytest.approx(10.4960, abs=2e-4)
    e = np.exp(-1.0)
    assert f1 == pytest.approx((1 + e) ** 2 / U11 + (1 - e) ** 2 / V11, rel=1e-13, abs=0.0)


def test_f_component_determinant_identity_random():
    rng = np.random.default_rng(20)
    for _ in range(20):
        delta = rng.uniform(0.05, 5.0)
        x = 10.0 ** rng.uniform(-4, 4)
        f1, f2, f3, g = f_components(delta, x)
        # relative to the identity's own scale; g underflows for large
        # delta*sqrt(x) while f1*f3 and f2^2 stay O(4)
        assert abs(f1 * f3 - f2**2 - g) <= 1e-10 * max(f1 * f3, abs(g))


def test_f_components_large_z_limits():
    f1, f2, f3, g = f_components(1.0, 400.0)
    assert f1 == pytest.approx(2.0, abs=1e-6)
    assert f2 == pytest.approx(2.0, abs=1e-6)
    assert f3 == pytest.approx(2.0, abs=1e-6)
    assert abs(g) < 1e-12


def test_f_total_reference_value():
    ctx = SymbolContext(1.0, 1.0, 1.0, 1.0)
    f1, f2, f3, g = f_components(1.0, 1.0)
    expected = 2.0 * g + 2.0 * f1 * f3 + 2.0 * f2**2
    assert f_total(ctx, 1.0) == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert f_total(ctx, 1.0) == pytest.approx(252.12, abs=1e-2)


def test_f_total_large_z_limit():
    for km, kp in ((1.0, 1.0), (0.3, 4.0)):
        ctx = SymbolContext(0.8, 1.7, km, kp)
        assert f_total(ctx, 500.0) == pytest.approx(16.0 * km * kp, rel=1e-6, abs=0.0)


def test_f_tilde_reference_and_quotient_identity():
    ctx = SymbolContext(1.0, 1.0, 1.0, 1.0)
    val = f_tilde(ctx, 1.0)
    assert val == pytest.approx(f_total(ctx, 1.0) * (U11 * V11) ** 4 / 16.0, rel=1e-12, abs=0.0)
    assert val == pytest.approx(2.854391e-2, abs=1e-6)


def test_f_tilde_tends_to_one():
    ctx = SymbolContext(1.0, 1.0, 1.0, 1.0)
    assert abs(f_tilde(ctx, 200.0) - 1.0) < 1e-6
    ctx2 = SymbolContext(0.5, 2.0, 0.2, 7.0)
    assert abs(f_tilde(ctx2, 2000.0) - 1.0) < 1e-6


def test_f_tilde_positive_on_grid():
    grid = np.logspace(-6, 6, 121)
    for ctx in (SymbolContext(1.0, 1.0, 1.0, 1.0), SymbolContext(2.0, 3.0, 5.0, 0.1)):
        vals = np.array([f_tilde(ctx, x) for x in grid])
        assert np.all(vals > 0)


def test_f_tilde_decay_monotone_in_tail():
    ctx = SymbolContext(1.0, 1.0, 1.0, 1.0)
    grid = np.logspace(0.5, 6, 40)
    gaps = np.abs(1.0 - np.array([f_tilde(ctx, x) for x in grid]))
    tail = gaps[gaps > 1e-15]
    assert np.all(np.diff(tail) <= 0)


@pytest.mark.parametrize("ctx", [
    SymbolContext(1.0, 1.0, 1.0, 1.0),
    SymbolContext(2.0, 3.0, 5.0, 0.1),
    SymbolContext(10.0, 0.1, 1.0, 1e4),     # k+/k- = 1e4, c/d = 1e2
    SymbolContext(0.37, 1.4, 2.2, 0.9),
    SymbolContext(5.0, 5.0, 1e-2, 1e2),
])
def test_positivity_scan_parameter_sets(ctx):
    scan = positivity_scan(ctx, np.logspace(-6, 6, 121))
    assert scan.all_positive
    assert scan.min_value > 0
    assert scan.grid_size == 121


def test_positivity_scan_rejects_bad_grids():
    ctx = SymbolContext(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        positivity_scan(ctx, [])
    with pytest.raises(ValueError):
        positivity_scan(ctx, [1.0, -2.0])


def test_positivity_scan_report_shape():
    ctx = SymbolContext(1.0, 2.0, 0.5, 1.5)
    scan = positivity_scan(ctx, np.logspace(-3, 3, 31))
    payload = scan.to_dict()
    assert set(payload) == {"min", "argmin", "grid_size", "all_positive"}
    assert isinstance(scan, PositivityScan)


def test_symbol_context_validation():
    with pytest.raises(ValueError):
        SymbolContext(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SymbolContext(1.0, 1.0, 0.0, 1.0)


def test_f_components_vanishing_symbol_names_the_mode():
    # u_delta ~ eps^3 / 3 underflows to 0 at eps = 1e-8 * sqrt(1e-250).
    with pytest.raises(EvaluationError, match="mode 1"):
        f_components(1e-8, np.array([1e12, 1e-250]))
    with pytest.raises(EvaluationError, match="mode 0"):
        f_components(1e-8, 1e-250)

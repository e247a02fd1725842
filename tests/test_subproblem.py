from functools import lru_cache

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.linalg import solve_banded

import bitrans._spline as spline
import bitrans.subproblem as subproblem
from bitrans import (
    BoundaryData,
    CylinderGeometry,
    ModalForcing,
    ParticularSolution,
    ResolutionError,
    SIDE_MINUS,
    SIDE_PLUS,
    SIDES,
    SolveOptions,
    SubproblemSolution,
    alphas_minus,
    alphas_plus,
    build_dirichlet_laplacian_1d,
    from_matrix,
    phi_tilde_minus,
    phi_tilde_plus,
    side_symbols,
    solve_particular,
    solve_transmission,
    u_delta,
)
from dense_reference import fd_particular


@pytest.fixture
def scalar_setup():
    op = from_matrix(np.array([[-1.0]]))
    geom = CylinderGeometry(-1.0, 0.0, 1.0)   # c = d = 1
    return op, geom


def test_zero_forcing_gives_zero_particular():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    part = solve_particular(op.eigenvalues, geom, SIDE_MINUS,
                            ModalForcing.zero(3, geom), n_x=33)
    assert part.active.size == 0 and part.f_modal.shape == part.w_modal.shape == (0, 0)
    assert np.max(np.abs(part.fprime_left)) == 0.0
    assert np.max(np.abs(part.f3_right)) == 0.0
    assert part.error_estimate == 0.0


@pytest.mark.parametrize("k_multiple", [1, 2])
def test_sine_forcing_exact_particular(k_multiple):
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    mode = 1
    forcing = ModalForcing.sine(op, geom, SIDE_MINUS, mode, k_multiple=k_multiple)
    k = k_multiple * np.pi / geom.c
    xs = np.linspace(geom.a, geom.gamma, 129)
    exact = np.sin(k * (xs - geom.a))
    errors = []
    for solve in (solve_particular, fd_particular):  # the new path, then the FD reference
        part = solve(op.eigenvalues, geom, SIDE_MINUS, forcing, n_x=129)
        assert np.array_equal(part.active, [mode])  # f_modal rows follow active
        terms = part.terms(xs, op.eigenvalues)
        errors.append(np.max(np.abs(terms[0, mode] - exact)))
        assert errors[-1] < 5e-9 * k_multiple**4
        others = [j for j in range(3) if j != mode]
        assert np.max(np.abs(terms[:, others])) == 0.0
        # Trace values: F'(a) = k, F'(gamma) = k cos(k c) = +-k.
        rel = 1e-7 * k_multiple**4
        assert part.fprime_left[mode] == pytest.approx(k, rel=rel, abs=0.0)
        assert part.fprime_right[mode] == pytest.approx(k * np.cos(k * geom.c), rel=rel, abs=0.0)
        # F''' = -k^2 F' for the sine.
        assert part.f3_left[mode] == pytest.approx(-k**2 * k, rel=10 * rel, abs=0.0)
    assert errors[0] <= errors[1]
    # The Chebyshev traces are exact to rounding.
    part = solve_particular(op.eigenvalues, geom, SIDE_MINUS, forcing, n_x=129)
    assert part.fprime_left[mode] == pytest.approx(k, rel=1e-14, abs=0.0)
    assert part.f3_right[mode] == pytest.approx(-k**3 * np.cos(k * geom.c), rel=1e-14, abs=0.0)


def test_particular_fourth_order_convergence():
    # The finite-difference reference converges at fourth order; the
    # Chebyshev path is at rounding on every grid size that is its cap.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    forcing = ModalForcing.sine(op, geom, SIDE_PLUS, 2, k_multiple=2)
    k = 2 * np.pi / geom.d
    errors = []
    for n in (33, 65, 129):
        part = fd_particular(op.eigenvalues, geom, SIDE_PLUS, forcing, n_x=n)
        exact = np.sin(k * (part.grid - geom.gamma))
        errors.append(np.max(np.abs(part.f_modal[list(part.active).index(2)] - exact)))
        xs = geom.grid(SIDE_PLUS, n)[1:-1]
        cheb = solve_particular(op.eigenvalues, geom, SIDE_PLUS, forcing, n_x=n)
        assert np.max(np.abs(cheb.terms(xs, op.eigenvalues)[0, 2]
                             - np.sin(k * (xs - geom.gamma)))) <= min(1e-14, errors[-1])
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(rates) > 3.5


def test_particular_endpoint_invariants():
    op = build_dirichlet_laplacian_1d(4, 1.0)
    geom = CylinderGeometry(-0.5, 0.0, 1.1)
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=(4, 3))

    def func(xs):
        xs = np.asarray(xs)
        return np.stack([c[0] + c[1] * xs + c[2] * xs**2 for c in coeffs])

    forcing = ModalForcing.from_functions(geom, 4, func, func)
    ref = fd_particular(op.eigenvalues, geom, SIDE_MINUS, forcing, n_x=65)
    assert np.max(np.abs(ref.f_modal[:, 0])) == 0.0
    assert np.max(np.abs(ref.f_modal[:, -1])) == 0.0
    assert np.max(np.abs(ref.w_modal[:, 0])) == 0.0   # w = F'' at the ends
    assert np.max(np.abs(ref.w_modal[:, -1])) == 0.0
    # Chebyshev: the terms hold F = F'' = 0 at the ends exactly. Every row
    # here is layer-free: its series part S (T_k(+-1) = (+-1)^k) and its end
    # layers H cancel at each end to rounding, S + H = 0 and S'' + H'' = 0
    # with S'' = w - mu S, and H's closed form (H = A + e (C + L D) and
    # H'' - g^2 H = 2g (B + e D) at lo, the reflection at hi).
    part = solve_particular(op.eigenvalues, geom, SIDE_MINUS, forcing, n_x=65)
    ends = part.terms(np.array(geom.interval(SIDE_MINUS)), op.eigenvalues)
    assert np.max(np.abs(ends[[0, 2]])) == 0.0
    assert np.all(part.layers != 0.0)
    mu = op.eigenvalues[part.active]
    g, length = -np.sqrt(-mu), geom.c
    e = np.exp(g * length)
    a, b, c, d = part.layers
    h_lo, h_hi = a + e * (c + length * d), e * (a + length * b) + c
    layer = [(h_lo, g * g * h_lo + 2.0 * g * (b + e * d)),
             (h_hi, g * g * h_hi + 2.0 * g * (e * b + d))]
    signs = (-1.0) ** np.arange(part.f_modal.shape[1])
    for (s_end, w_end), (h, h2) in zip(((part.f_modal @ signs, part.w_modal @ signs),
                                        (part.f_modal.sum(axis=1), part.w_modal.sum(axis=1))),
                                       layer):
        assert np.max(np.abs(s_end + h)) <= 1e-15 * np.max(np.abs(part.f_modal))
        assert np.max(np.abs(w_end - mu * s_end + h2)) <= 1e-15 * np.max(np.abs(part.w_modal))


def test_resolution_error():
    op = build_dirichlet_laplacian_1d(2, 1.0)
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    with pytest.raises(ResolutionError):
        solve_particular(op.eigenvalues, geom, SIDE_MINUS,
                         ModalForcing.zero(2, geom), n_x=9)


def test_phi_tilde_scalar_reference(scalar_setup):
    op, geom = scalar_setup
    ops = side_symbols(op, geom.c)
    one, zero = np.array([1.0]), np.array([0.0])
    pt = phi_tilde_minus(ops, one, zero, zero, zero)
    assert pt[0][0] == pytest.approx(0.5 / u_delta(1.0, 1.0), rel=1e-12, abs=0.0)
    assert pt[0][0] == pytest.approx(3.8788, abs=1e-4)
    ptp = phi_tilde_plus(side_symbols(op, geom.d), one, zero, zero, zero)
    assert ptp[0][0] == pytest.approx(-3.8788, abs=1e-4)


def test_phi_tilde_zero_data(scalar_setup):
    op, geom = scalar_setup
    ops = side_symbols(op, geom.c)
    zero = np.zeros(1)
    for vec in phi_tilde_minus(ops, zero, zero, zero, zero):
        assert np.all(vec == 0.0)


def test_phi_tilde_linearity():
    op = build_dirichlet_laplacian_1d(4, 1.0)
    ops = side_symbols(op, 0.8)
    rng = np.random.default_rng(5)
    data = rng.normal(size=(4, 4))
    base = phi_tilde_minus(ops, *data)
    double = phi_tilde_minus(ops, *(2.0 * data))
    for one, two in zip(base, double):
        assert np.max(np.abs(two - 2.0 * one)) <= 1e-12 * (1.0 + np.max(np.abs(two)))


def test_phi_tilde_plus_minus_antisymmetry(scalar_setup):
    # Mirrored data with c = d: phi~1+ = -phi~1-.
    op, geom = scalar_setup
    ops_m = side_symbols(op, geom.c)
    ops_p = side_symbols(op, geom.d)
    rng = np.random.default_rng(8)
    phi1, phi2, ta, tb = rng.normal(size=(4, 1))
    pt_m = phi_tilde_minus(ops_m, phi1, phi2, ta, tb)
    pt_p = phi_tilde_plus(ops_p, phi1, -phi2, -tb, -ta)
    assert pt_p[0][0] == pytest.approx(-pt_m[0][0], rel=1e-12, abs=0.0)


def test_alphas_scalar_reference(scalar_setup):
    op, geom = scalar_setup
    ops = side_symbols(op, geom.c)
    zero4 = tuple(np.zeros(1) for _ in range(4))
    al = alphas_minus(ops, np.array([1.0]), np.array([0.0]), zero4)
    expected = 0.5 / u_delta(1.0, 1.0) * (1.0 + np.exp(-1.0)) * (-1.0)
    assert al[1][0] == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert al[1][0] == pytest.approx(-5.3058, abs=1e-4)


def test_alphas_reduce_to_phi_tilde(scalar_setup):
    op, geom = scalar_setup
    ops = side_symbols(op, geom.c)
    rng = np.random.default_rng(2)
    pt = tuple(rng.normal(size=1) for _ in range(4))
    zero = np.zeros(1)
    for a, p in zip(alphas_minus(ops, zero, zero, pt), pt):
        assert a[0] == pytest.approx(p[0], rel=1e-14, abs=0.0)
    for a, p in zip(alphas_plus(ops, zero, zero, pt), pt):
        assert a[0] == pytest.approx(p[0], rel=1e-14, abs=0.0)


def _assemble_side(op, geom, side, forcing, bc_pair, psi_pair, n_x=65):
    """Build a SubproblemSolution from physical data the way the orchestrator does."""
    ops = side_symbols(op, geom.length(side))
    part = solve_particular(op.eigenvalues, geom, side, forcing, n_x=n_x)
    phi1, phi2, psi1, psi2 = (op.to_modal(vec) for vec in (*bc_pair, *psi_pair))
    if side == SIDE_MINUS:
        pt = phi_tilde_minus(ops, phi1, phi2, part.fprime_left, part.fprime_right)
        al = alphas_minus(ops, psi1, psi2, pt)
    else:
        pt = phi_tilde_plus(ops, phi1, phi2, part.fprime_left, part.fprime_right)
        al = alphas_plus(ops, psi1, psi2, pt)
    return SubproblemSolution(side, geom, op, al, part)


@pytest.mark.parametrize("side", [SIDE_MINUS, SIDE_PLUS])
def test_boundary_roundtrip_with_forcing(side):
    op = build_dirichlet_laplacian_1d(4, 1.0)
    geom = CylinderGeometry(-0.8, 0.0, 1.2)
    rng = np.random.default_rng(17)
    forcing = ModalForcing.sine(op, geom, side, 0, k_multiple=1, amplitude=0.7)
    phi1, phi2, psi1, psi2 = rng.normal(size=(4, 4))
    sol = _assemble_side(op, geom, side, forcing, (phi1, phi2), (psi1, psi2))
    lo, hi = geom.interval(side)
    outer, inner = (lo, hi) if side == SIDE_MINUS else (hi, lo)
    assert np.max(np.abs(sol.evaluate(outer, 0) - phi1)) < 1e-9
    assert np.max(np.abs(sol.evaluate(outer, 1) - phi2)) < 1e-9
    assert np.max(np.abs(sol.evaluate(inner, 0) - psi1)) < 1e-9
    assert np.max(np.abs(sol.evaluate(inner, 1) - psi2)) < 1e-9


def test_evaluate_zero_everywhere():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    zeros = tuple(np.zeros(3) for _ in range(4))
    sol = SubproblemSolution(SIDE_MINUS, geom, op, zeros)
    for order in range(4):
        assert np.max(np.abs(sol.evaluate(np.linspace(-1, 0, 9), order))) == 0.0


def test_evaluate_rejects_bad_inputs():
    op = build_dirichlet_laplacian_1d(2, 1.0)
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    zeros = tuple(np.zeros(2) for _ in range(4))
    sol = SubproblemSolution(SIDE_MINUS, geom, op, zeros)
    with pytest.raises(ValueError):
        sol.evaluate(0.5, 0)   # outside the minus interval
    with pytest.raises(ValueError):
        sol.evaluate(-0.5, 4)


def test_modal_fields_take_the_end_within_the_tolerance_and_refuse_beyond():
    # The check is CylinderGeometry.clip_points, which the oracle's fields
    # share: 1e-10 of the interval length outside an end is the end.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.9, 0.0, 1.0)
    al = tuple(np.random.default_rng(4).normal(size=3) for _ in range(4))
    sol = SubproblemSolution(SIDE_PLUS, geom, op, al)
    inside = sol.modal_fields([geom.gamma - 0.5e-10, geom.b + 0.5e-10])
    assert np.array_equal(inside, sol.modal_fields([geom.gamma, geom.b]))
    for x in (geom.gamma - 2e-10, geom.b + 2e-10, -0.5):
        with pytest.raises(ValueError, match=r"outside \[0.0, 1.0\] on side 'plus'"):
            sol.modal_fields([x])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_derivative_formulas_consistent_with_differencing(order):
    # The analytic order-(k+1) field must match the numerical derivative
    # of the order-k field: an independent check of the evaluation algebra.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.9, 0.0, 1.0)
    rng = np.random.default_rng(4)
    al = tuple(rng.normal(size=3) for _ in range(4))
    sol = SubproblemSolution(SIDE_MINUS, geom, op, al)
    xs = np.linspace(-0.7, -0.2, 5)
    h = 1e-5
    numeric = (sol.evaluate(xs + h, order) - sol.evaluate(xs - h, order)) / (2 * h)
    analytic = sol.evaluate(xs, order + 1)
    scale = 1.0 + np.max(np.abs(analytic))
    assert np.max(np.abs(numeric - analytic)) / scale < 1e-7


def test_pipeline_linearity_in_all_data():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.6, 0.0, 0.8)
    rng = np.random.default_rng(23)
    phi1, phi2, psi1, psi2 = rng.normal(size=(4, 3))
    amp = 0.9

    def solve(scale):
        forcing = ModalForcing.sine(op, geom, SIDE_MINUS, 1, amplitude=scale * amp)
        return _assemble_side(op, geom, SIDE_MINUS, forcing,
                              (scale * phi1, scale * phi2),
                              (scale * psi1, scale * psi2))

    xs = np.linspace(geom.a, geom.gamma, 7)
    one = solve(1.0).evaluate(xs, 0)
    two = solve(2.0).evaluate(xs, 0)
    assert np.max(np.abs(two - 2.0 * one)) <= 1e-12 * (1.0 + np.max(np.abs(two)))


def test_zero_forcing_side_skips_the_banded_solves(monkeypatch):
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    forcing = ModalForcing.sine(op, geom, SIDE_PLUS, 1)
    calls = []
    real = subproblem.solve_banded
    monkeypatch.setattr(subproblem, "solve_banded",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    part = solve_particular(op.eigenvalues, geom, SIDE_MINUS, forcing, n_x=33)
    assert not calls
    zero = ParticularSolution.zero(SIDE_MINUS, geom, 3)
    for name in ("f_modal", "w_modal", "fprime_left", "fprime_right",
                 "f3_left", "f3_right"):
        assert np.array_equal(getattr(part, name), getattr(zero, name))
    assert part.error_estimate == 0.0
    # The sine row takes the layer-free route: solved, with no banded call either.
    forced = solve_particular(op.eigenvalues, geom, SIDE_PLUS, forcing, n_x=33)
    assert not calls and np.max(np.abs(forced.f_modal)) > 0.0 and forced.layers.any()


def _per_mode_particular(mu, geom, side, forcing, n_x):
    """Reference particular solve: one pair of Dirichlet solves per mode, all modes."""
    def dirichlet(mu_j, h, rhs):
        ab = np.zeros((3, rhs.size))
        ab[0, 1:] = 1.0 / h**2
        ab[1, :] = -2.0 / h**2 + mu_j
        ab[2, :-1] = 1.0 / h**2
        out = np.zeros(rhs.size + 2)
        out[1:-1] = solve_banded((1, 1), ab, rhs)
        return out

    def factorized(grid, fhat):
        h = grid[1] - grid[0]
        f, w = np.zeros_like(fhat), np.zeros_like(fhat)
        for j in range(mu.size):
            w[j] = dirichlet(mu[j], h, fhat[j, 1:-1])
            f[j] = dirichlet(mu[j], h, w[j, 1:-1])
        return f, w

    grid_c, grid_f = geom.grid(side, n_x), geom.grid(side, 2 * n_x - 1)
    fhat_c = forcing.sample(side, grid_c)
    f_c, w_c = factorized(grid_c, fhat_c)
    f_f, w_f = factorized(grid_f, forcing.sample(side, grid_f))
    corr = (f_f[:, ::2] - f_c) / 3.0
    f_x = f_f[:, ::2] + corr
    w_x = w_f[:, ::2] + (w_f[:, ::2] - w_c) / 3.0
    h = grid_c[1] - grid_c[0]
    d1 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    fp_l, fp_r = f_x[:, :5] @ d1 / h, -(f_x[:, -1:-6:-1] @ d1) / h
    wp_l, wp_r = w_x[:, :5] @ d1 / h, -(w_x[:, -1:-6:-1] @ d1) / h
    estimate = np.max(np.abs(corr)) / (1.0 + np.max(np.abs(f_x))) if np.any(fhat_c) else 0.0
    return dict(f_modal=f_x, w_modal=w_x, fprime_left=fp_l, fprime_right=fp_r,
                f3_left=wp_l - mu * fp_l, f3_right=wp_r - mu * fp_r, error_estimate=estimate)


def _random_forcing(geom, m, rng, zero_rows=()):
    """Smooth per-mode forcing with random coefficients; ``zero_rows`` are 0 on both sides."""
    coeffs = rng.normal(size=(m, 4))
    coeffs[list(zero_rows)] = 0.0

    def func(xs):
        xs = np.asarray(xs)
        return (coeffs[:, :1] + coeffs[:, 1:2] * xs + coeffs[:, 2:3] * np.cos(3.0 * xs)
                + coeffs[:, 3:4] * np.sin(7.0 * xs))

    return ModalForcing.from_functions(geom, m, func, func)


def _term_reference(part, xs, order, mu):
    """F-term of one derivative order of an ``fd_particular``, one spline per field.

    Interior: F^(order) for orders 0, 1 and w^(order-2) - mu F^(order-2)
    for orders 2, 3; at the ends the stored traces (odd orders) or the
    homogeneous conditions F = F'' = 0 (even orders).
    """
    out = np.zeros((part.m, xs.size))
    rows = part.active
    if not rows.size:
        return out
    lo, hi = part.grid[0], part.grid[-1]
    at_lo = np.abs(xs - lo) <= 1e-10 * (hi - lo)
    at_hi = np.abs(xs - hi) <= 1e-10 * (hi - lo)
    inner = ~(at_lo | at_hi)
    nu = order % 2
    spline_f = spline.CubicSpline(part.grid, part.f_modal)
    spline_w = spline.CubicSpline(part.grid, part.w_modal)
    sub = np.zeros((rows.size, xs.size))
    sub[:, inner] = spline_f(xs[inner], nu)
    if order >= 2:
        sub[:, inner] = spline_w(xs[inner], nu) - mu[rows, None] * sub[:, inner]
    if nu:
        left, right = ((part.fprime_left, part.fprime_right) if order == 1
                       else (part.f3_left, part.f3_right))
        sub[:, at_lo] = left[rows, None]
        sub[:, at_hi] = right[rows, None]
    out[rows] = sub
    return out


def _chebyshev_term_reference(part, xs, order, mu):
    """F-term of one derivative order from numpy's Chebyshev series of the coefficient tables.

    Interior: S^(order) for orders 0, 1 and w^(order-2) - mu S^(order-2)
    for orders 2, 3 (d/dx = d/dt / half), plus the end layers' term from
    the per-term derivatives d^k E1 = g^k E1, d^k (s1 E1) =
    (k g^{k-1} + s1 g^k) E1 and, with an extra (-1)^k, the E2 terms; at
    the ends the stored traces (odd orders) or F = F'' = 0 (even orders).
    """
    out = np.zeros((part.m, xs.size))
    lo, hi = part.geometry.interval(part.side)
    half = 0.5 * (hi - lo)
    t = (xs - lo) / half - 1.0
    inner = np.abs(np.abs(t) - 1.0) > 1e-10
    nu = order % 2
    s1, s2 = xs[inner] - lo, hi - xs[inner]
    for i, row in enumerate(part.active):
        f_nu, w_nu = (chebyshev.chebval(t[inner], chebyshev.chebder(table[i], nu)) / half**nu
                      for table in (part.f_modal, part.w_modal))
        out[row, inner] = f_nu if order < 2 else w_nu - mu[row] * f_nu
        g = -np.sqrt(-mu[row])
        big_a, big_b, big_c, big_d = part.layers[:, i]
        e1, e2, sign = np.exp(g * s1), np.exp(g * s2), (-1.0) ** order
        gk, dgk = g**order, order * g ** max(order - 1, 0)
        out[row, inner] += (gk * e1 * big_a + (dgk + s1 * gk) * e1 * big_b
                            + sign * (gk * e2 * big_c + (dgk + s2 * gk) * e2 * big_d))
        if nu:
            left, right = ((part.fprime_left, part.fprime_right) if order == 1
                           else (part.f3_left, part.f3_right))
            out[row, t <= -1.0 + 1e-10], out[row, t >= 1.0 - 1e-10] = left[row], right[row]
    return out


def _per_order_field(sol, xs, order):
    """Homogeneous field of one derivative order from the per-term derivatives.

    With E1 = e^{s1 g}, E2 = e^{s2 g} and d/dx s1 = -d/dx s2 = 1:
    d^k E1 = g^k E1, d^k (s1 E1) = (k g^{k-1} + s1 g^k) E1, and the E2
    terms carry an extra factor (-1)^k.
    """
    lo, hi = sol.geometry.interval(sol.side)
    gm = sol.operator.generator_eigenvalues[:, None]
    s1, s2 = (xs - lo)[None, :], (hi - xs)[None, :]
    gk = gm**order
    dgk = order * gm ** max(order - 1, 0)
    sign = (-1.0) ** order
    e1, e2 = np.exp(s1 * gm), np.exp(s2 * gm)
    de1, de2 = gk * e1, sign * gk * e2
    dse1, dse2 = (dgk + s1 * gk) * e1, sign * (dgk + s2 * gk) * e2
    a1, a2, a3, a4 = (a[:, None] for a in sol.alphas)
    return ((de1 - de2) * a1 + (dse1 - dse2) * a2
            + (de1 + de2) * a3 + (dse1 + dse2) * a4)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("side", [SIDE_MINUS, SIDE_PLUS])
def test_modal_fields_match_the_per_order_closed_form(side, forced):
    # Random a1..a4 (a2, a4 != 0 exercise the s E terms that pure
    # exponentials leave out), interior points and both ends exactly.
    m = 12
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    rng = np.random.default_rng(23)
    alphas = tuple(rng.normal(size=m) for _ in range(4))
    part = None
    if forced:
        zero_rows = [j for j in range(m) if j % 3 == 0]
        part = solve_particular(op.eigenvalues, geom, side, _random_forcing(geom, m, rng,
                                                                             zero_rows), n_x=65)
    sol = SubproblemSolution(side, geom, op, alphas, part)
    lo, hi = geom.interval(side)
    xs = np.concatenate([[lo], np.sort(rng.uniform(lo, hi, 7)), [hi]])
    table = sol.modal_fields(xs)
    assert table.shape == (4, m, xs.size)
    for order in range(4):
        expected = _per_order_field(sol, xs, order)
        if forced:
            expected = expected + _chebyshev_term_reference(part, xs, order, op.eigenvalues)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(table[order] - expected)) <= 1e-13 * scale, order
        np.testing.assert_array_equal(sol.evaluate(xs, order), op.from_modal(table[order]))
    with pytest.raises(ValueError, match="outside"):
        sol.modal_fields([lo - 1e-3 * (hi - lo)])
    with pytest.raises(ValueError, match="outside"):
        sol.modal_fields([hi + 1e-3 * (hi - lo)])


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("side", [SIDE_MINUS, SIDE_PLUS])
def test_end_values_match_modal_fields_at_both_ends_bit_for_bit(side, forced):
    # The report reads u and u' at the interval ends from end_values (both
    # intervals at once, ``transmission._end_traces``), with a particular
    # part's F' traces added (F = 0 at the ends); they must be
    # modal_fields' values there, bit for bit, at every size.
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    rng = np.random.default_rng(31)
    for m in range(1, 65):
        op = build_dirichlet_laplacian_1d(m, 1.0)
        ops = side_symbols(op, geom.length(side))
        alphas = tuple(rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3, m) for _ in range(4))
        part = None
        if forced:
            forcing = _random_forcing(geom, m, rng, [j for j in range(m) if j % 3 == 1])
            part = solve_particular(op.eigenvalues, geom, side, forcing, n_x=33)
        table = SubproblemSolution(side, geom, op, alphas, part).modal_fields(
            np.array(geom.interval(side)))
        for end, (u, du) in enumerate(subproblem.end_values(ops, alphas)):
            if part is not None and part.active.size:
                du = du + (part.fprime_left, part.fprime_right)[end]
            assert np.array_equal(u, table[0, :, end]), (m, end)
            assert np.array_equal(du, table[1, :, end]), (m, end)


def _check_per_mode_bytes(mu, geom, side, forcing, n_x, zero_rows):
    """solve_particular's active modes are the nonzero ones, each the bytes of its solve alone."""
    part = solve_particular(mu, geom, side, forcing, n_x=n_x)
    assert np.array_equal(np.setdiff1d(np.arange(mu.size), part.active), zero_rows)
    for i, j in enumerate(part.active):
        alone = solve_particular(mu, geom, side, ModalForcing.from_functions(
            geom, mu.size, *(lambda xs, f=f: f(xs)[[j]] for f in (forcing.func_minus,
                                                                   forcing.func_plus)),
            modes=(j,)), n_x=n_x)
        width = alone.f_modal.shape[1]
        for name in ("f_modal", "w_modal"):
            row = getattr(part, name)[i]
            assert row[:width].tobytes() == getattr(alone, name)[0].tobytes(), (j, name)
            assert not row[width:].any()
        for name in ("fprime_left", "fprime_right", "f3_left", "f3_right"):
            assert getattr(part, name)[j] == getattr(alone, name)[j], (j, name)
        assert part.layers[:, i].tobytes() == alone.layers[:, 0].tobytes(), j
        assert alone.error_estimate <= part.error_estimate


@pytest.mark.parametrize("n_x", [17, 129])
@pytest.mark.parametrize("m", [1, 5, 64])
@pytest.mark.parametrize("mixed", [False, True], ids=["dense", "mixed"])
def test_particular_matches_per_mode_reference(m, n_x, mixed):
    # The finite-difference reference's stacked solve against one solve per
    # mode, and solve_particular's stacked solve against itself on one mode.
    # Mixed forcing zeroes every mode j with j % 3 != 1, so m=1 has no active mode.
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    rng = np.random.default_rng(m * n_x)
    zero_rows = [j for j in range(m) if j % 3 != 1] if mixed else []
    forcing = _random_forcing(geom, m, rng, zero_rows)
    for side in (SIDE_MINUS, SIDE_PLUS):
        _check_per_mode_bytes(op.eigenvalues, geom, side, forcing, n_x, zero_rows)
        part = fd_particular(op.eigenvalues, geom, side, forcing, n_x=n_x)
        ref = _per_mode_particular(op.eigenvalues, geom, side, forcing, n_x)
        inactive = np.setdiff1d(np.arange(m), part.active)
        assert np.array_equal(inactive, zero_rows)
        for name, expected in ref.items():
            if name in ("f_modal", "w_modal"):  # one row per active mode
                assert np.all(expected[inactive] == 0.0)
                expected = expected[part.active]
            np.testing.assert_allclose(getattr(part, name), expected, rtol=1e-15, atol=0.0,
                                       err_msg=name)
        lo, hi = geom.interval(side)
        xs = np.concatenate([[lo], np.linspace(lo, hi, 11)[1:-1], [hi]])
        terms = part.terms(xs, op.eigenvalues)
        assert terms.shape == (4, m, xs.size)
        for order, term in enumerate(terms):
            assert np.all(term[inactive] == 0.0)
            assert np.any(term[part.active]) == bool(part.active.size)
            assert terms[order].tobytes() == _term_reference(part, xs, order, op.eigenvalues).tobytes()


@pytest.mark.parametrize("dense", [False, True], ids=["one-mode-sine", "dense-64-modes"])
def test_particular_solve_makes_two_banded_calls_per_round(monkeypatch, dense):
    # Each refinement round solves both stages of every pending stage row in
    # two tridiagonal calls on one factorization, a batch with a system of
    # at most n_x unknowns per row (the first call also solves for e_0, a
    # second column); no spline is built. The sine's row takes the
    # layer-free route and makes no banded call.
    m, n_x = 64, 129
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    if dense:
        forcing, forced, rows = _random_forcing(geom, m, np.random.default_rng(3)), SIDES, m
    else:
        forcing, forced, rows = ModalForcing.sine(op, geom, SIDE_PLUS, 5), (SIDE_PLUS,), 1
    banded, splines = [], []
    real_banded, real_init = subproblem.solve_banded, spline.CubicSpline.__init__
    monkeypatch.setattr(subproblem, "solve_banded",
                        lambda lu, b: banded.append((lu, b.shape)) or real_banded(lu, b))
    monkeypatch.setattr(spline.CubicSpline, "__init__",
                        lambda self, *args, **kw: splines.append(1) or real_init(self, *args, **kw))
    for side in SIDES:
        banded.clear()
        part = solve_particular(op.eigenvalues, geom, side, forcing, n_x=n_x)
        if side not in forced or not dense:
            assert not banded
            continue
        rounds = len(banded) // 2
        assert 1 <= rounds <= 4 and len(banded) == 2 * rounds  # lengths 17, 33, 65, 129
        for (lu_w, b_w), (lu_f, b_f) in zip(banded[::2], banded[1::2]):
            size, batch = lu_w[0].shape
            assert lu_f is lu_w and b_w == (size, 2, batch) and b_f == (size, batch)
        stage = np.flatnonzero(~part.layers.any(axis=0))
        size, batch = banded[0][0][0].shape
        assert 0 < stage.size < rows and batch <= stage.size and size <= n_x
    assert not splines


def _csv_forcing(geom, m, rng):
    rows = [(x, j, value, side) for side in SIDES
            for x, column in zip(geom.grid(side, 17), rng.normal(size=(17, m)))
            for j, value in enumerate(column)]
    return ModalForcing.from_csv_rows(geom, m, rows)


def _stacked_stages(lams, fhats, scale):
    """``_solve_groups`` as one stacked LAPACK gtsv call per stage: every row's bands end to end."""
    lays = [subproblem._layout(fhat.shape[1]) for fhat in fhats]
    ends = np.cumsum([fhat.size for fhat in fhats])
    spans = [slice(end - fhat.size, end) for end, fhat in zip(ends, fhats)]
    ab = np.concatenate([(lay.fixed[:, None] + lam[:, None] * lay.slope[:, None]).reshape(3, -1)
                         for lay, lam in zip(lays, lams)], axis=1)
    rhs = np.empty((ends[-1], 2))
    for span, g, lay in zip(spans, fhats, lays):
        rhs[span, 0] = subproblem._stage_rhs(g, lay, scale).ravel()
        rhs[span, 1] = np.tile(lay.unit, g.shape[0])
    sol = solve_banded((1, 1), ab, rhs)
    zs = [sol[span, 1].reshape(g.shape) for span, g in zip(spans, fhats)]
    ws = [subproblem._bordered(sol[span, 0].reshape(g.shape), z, lay)
          for span, z, g, lay in zip(spans, zs, fhats, lays)]
    sol = solve_banded((1, 1), ab, np.concatenate([subproblem._stage_rhs(w, lay, scale).ravel()
                                                   for w, lay in zip(ws, lays)]))
    return [np.stack([subproblem._bordered(sol[span].reshape(w.shape), z, lay), w])
            for span, z, w, lay in zip(spans, zs, ws, lays)]


@pytest.mark.parametrize("n_x", [129, 2049])
@pytest.mark.parametrize("table", ["random", "mixed"])
def test_stage_route_gives_the_bits_of_a_stacked_gtsv_call(monkeypatch, table, n_x):
    # Every row of a random CSV table takes the stages, and its forcing never
    # chops. In the mixed table, on a wider section (smaller lam), the even
    # modes are cubics that the spline reproduces: they chop at 17 points,
    # so a round's batch pads them to the random rows' length. The padded
    # batch gives the bits of one stacked scipy call per stage.
    m = 8
    op = build_dirichlet_laplacian_1d(m, 1.0 if table == "random" else 10.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    rng = np.random.default_rng(11)
    if table == "random":
        forcing = _csv_forcing(geom, m, rng)
    else:
        rows = []
        for side in SIDES:
            lo, hi = geom.interval(side)
            for x, column in zip(geom.grid(side, 17), rng.normal(size=(17, m))):
                rows += [(x, j, value if j % 2 else (j + 1) * x * (x - lo) * (hi - x), side)
                         for j, value in enumerate(column)]
        forcing = ModalForcing.from_csv_rows(geom, m, rows)
    lengths = []
    real = subproblem._solve_groups
    monkeypatch.setattr(subproblem, "_solve_groups", lambda lams, fhats, scale: lengths.append(
        [fhat.shape[1] for fhat in fhats]) or real(lams, fhats, scale))
    parts = [solve_particular(op.eigenvalues, geom, side, forcing, n_x) for side in SIDES]
    assert any(len(groups) > 1 for groups in lengths) == (table == "mixed")
    monkeypatch.setattr(subproblem, "_solve_groups", _stacked_stages)
    for side, part in zip(SIDES, parts):
        ref = solve_particular(op.eigenvalues, geom, side, forcing, n_x)
        assert part.active.size == m and not part.layers.any()
        for name in ("f_modal", "w_modal", "fprime_left", "fprime_right", "f3_left", "f3_right"):
            assert np.array_equal(getattr(part, name), getattr(ref, name)), name
        assert part.error_estimate == ref.error_estimate


@pytest.mark.parametrize("kind, calls", [("zero", 0), ("sine", 1), ("csv", 6)])
def test_zero_sample_side_is_not_sampled(monkeypatch, kind, calls):
    # A side is sampled once per Chebyshev length it uses: the sine chops at
    # its first length on its one forced side, and the spline table refines
    # through 17, 33 and 65 on both sides.
    m, n_x = 8, 65
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    forcing = {"zero": lambda: ModalForcing.zero(m, geom),
               "sine": lambda: ModalForcing.sine(op, geom, SIDE_PLUS, 1),
               "csv": lambda: _csv_forcing(geom, m, np.random.default_rng(5))}[kind]()
    sampled = []
    real = ModalForcing.sample_modes
    monkeypatch.setattr(ModalForcing, "sample_modes",
                        lambda self, side, xs: sampled.append((side, len(xs)))
                        or real(self, side, xs))
    for side in SIDES:
        solve_particular(op.eigenvalues, geom, side, forcing, n_x)
    assert len(sampled) == len(set(sampled)) == calls
    assert len({side for side, _ in sampled}) == min(calls, 1 if kind == "sine" else 2)


def test_zero_sample_side_matches_the_sampled_solve():
    # The same zero forcing behind a resampler still takes the sampling path,
    # and gives the same bytes, signed zeros included.
    m, n_x = 8, 65
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)

    def zeros(xs):
        return np.zeros((m, np.size(xs)))

    forcing = ModalForcing.zero(m, geom)
    sampled_zero = ModalForcing.from_functions(geom, m, zeros, zeros)
    for side in SIDES:
        part = solve_particular(op.eigenvalues, geom, side, forcing, n_x)
        full = solve_particular(op.eigenvalues, geom, side, sampled_zero, n_x)
        for name in ("f_modal", "w_modal", "fprime_left", "fprime_right",
                     "f3_left", "f3_right", "active"):
            assert getattr(part, name).tobytes() == getattr(full, name).tobytes(), name
        assert part.error_estimate == full.error_estimate == 0.0
    # Downstream, the fields and the report are bit-identical.
    bc = BoundaryData(*np.random.default_rng(0).standard_normal((4, m)))
    fast, slow = (solve_transmission(op, geom, 1.0, 3.0, f, bc) for f in (forcing, sampled_zero))
    for side in SIDES:
        xs = geom.grid(side, 33)
        for order in range(4):
            assert fast.field(side, xs, order).tobytes() == slow.field(side, xs, order).tobytes()
    assert fast.report.to_json() == slow.report.to_json()


def _dense_stage(lam, g, scale):
    """u'' - lam u = scale g, u(-1) = u(1) = 0, as one dense n x n solve in T coefficients.

    Rows 0, 1: the boundary conditions; row j + 2: the C^(2) coefficient j
    of D2 u - lam S1 S0 u = scale S1 S0 g, the operators built from their
    definitions (T_k'' = 2k C^(2)_{k-2}; T_0 = C^(1)_0, T_k = (C^(1)_k -
    C^(1)_{k-2}) / 2; C^(1)_k = (C^(2)_k - C^(2)_{k-2}) / (k + 1)).
    """
    n = g.size
    d2, s0, s1 = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    for k in range(n):
        if k >= 2:
            d2[k - 2, k] = 2.0 * k
        s0[k, k] = 1.0 if k == 0 else 0.5
        s1[k, k] = 1.0 / (k + 1)
        if k >= 2:
            s0[k - 2, k] = -0.5
            s1[k - 2, k] = -1.0 / (k + 1)
    conv = s1 @ s0
    mat = np.vstack([(-1.0) ** np.arange(n), np.ones(n), (d2 - lam * conv)[:n - 2]])
    rhs = np.concatenate([[0.0, 0.0], scale * (conv @ g)[:n - 2]])
    return np.linalg.solve(mat, rhs)


@pytest.mark.parametrize("n", [17, 64, 129, 256])
def test_banded_stages_match_a_dense_solve(n):
    # The stacked tridiagonal solve with its rank-one border against one dense
    # solve per row and stage, from mu = -1 to the stiff end (lam = -mu half^2).
    rng = np.random.default_rng(n)
    lam = np.array([0.25, 30.0, 1835.0, 4350.0, 1.1e5])
    fhat = rng.normal(size=(lam.size, n)) / (1.0 + np.arange(n)) ** 2
    (fw,) = subproblem._solve_groups([lam], [fhat], 0.4)
    for i, lam_i in enumerate(lam):
        w = _dense_stage(lam_i, fhat[i], 0.4)
        f = _dense_stage(lam_i, w, 0.4)
        for got, want in ((fw[1, i], w), (fw[0, i], f)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, lam_i)


def _mp_traces(mu, length, kappa):
    """(F'(0), F'(L), F'''(0), F'''(L)) of (d^2 + mu)^2 F = Re e^{kappa x}, F = F'' = 0 at 0 and L.

    F = Re e^{kappa x} / (kappa^2 + mu)^2 plus the four homogeneous terms
    e^{s (x - L)}, x e^{s (x - L)}, e^{-s x}, x e^{-s x} (s = sqrt(-mu)),
    their weights from the four end conditions, in 50-digit arithmetic.
    """
    with mpmath.workdps(50):
        mu, length, kappa = mpmath.mpf(mu), mpmath.mpf(length), mpmath.mpc(kappa)
        s = mpmath.sqrt(-mu)

        def particular(x, d):
            return mpmath.re(kappa**d * mpmath.exp(kappa * x) / (kappa**2 + mu) ** 2)

        def basis(x, d):
            grow, decay = mpmath.exp(s * (x - length)), mpmath.exp(-s * x)
            return [s**d * grow, (s**d * x + d * s ** (d - 1)) * grow,
                    (-s) ** d * decay, ((-s) ** d * x + d * (-s) ** (d - 1)) * decay]

        ends = (mpmath.mpf(0), length)
        weights = mpmath.lu_solve(mpmath.matrix([basis(x, d) for x in ends for d in (0, 2)]),
                                  mpmath.matrix([-particular(x, d) for x in ends for d in (0, 2)]))
        return [float(particular(x, d) + sum(c * b for c, b in zip(weights, basis(x, d))))
                for d in (1, 3) for x in ends]


def test_particular_traces_match_a_50_digit_solution():
    # Plus interval [0, 1.3], m = 32, forcing Re e^{(1 + 5i) x} on modes 0
    # (s = 65.9, the stiffest), 15 and 31. At the default cap the relative
    # error of F' and F''' at both ends is at most 1e-10, and on each mode
    # no worse than the finite-difference reference at n_x = 2049.
    m, modes, kappa = 32, [0, 15, 31], 1.0 + 5.0j
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)

    def func(xs):
        return np.tile(np.exp(kappa * np.asarray(xs)).real, (len(modes), 1))

    forcing = ModalForcing.from_functions(geom, m, None, func, modes=modes)
    part = solve_particular(op.eigenvalues, geom, SIDE_PLUS, forcing)
    ref = fd_particular(op.eigenvalues, geom, SIDE_PLUS, forcing, n_x=2049)
    names = ("fprime_left", "fprime_right", "f3_left", "f3_right")
    for j in modes:
        truth = np.array(_mp_traces(op.eigenvalues[j], geom.d, kappa))
        errors = [np.max(np.abs([getattr(sol, name)[j] for name in names] - truth) / np.abs(truth))
                  for sol in (part, ref)]
        assert errors[0] <= 1e-10 and errors[0] <= errors[1], (j, errors)
    assert part.error_estimate <= subproblem.CHOP_TOL


@lru_cache(maxsize=None)
def _laplacian(m):
    return build_dirichlet_laplacian_1d(m, 1.0)


def _stiff_forcing(geom, m, modes):
    """Re e^{(1 + 5i) x} on the plus side, on each of ``modes``: the stiff forced case."""
    def func(xs):
        return np.tile(np.exp((1.0 + 5.0j) * np.asarray(xs)).real, (len(modes), 1))

    return ModalForcing.from_functions(geom, m, None, func, modes=modes)


@pytest.mark.parametrize("m", [256, 512, 2048])
def test_stiff_rows_match_a_50_digit_solution(m):
    # Mode 0 (the stiffest) and the middle mode, each solved alone at the
    # default cap. Their forcing chops at 33 points and they take the
    # layer-free route, where the stages needed 9.5 lam^(1/4) = 174 to 489
    # coefficients for the layers of mode 0. F' and F''' at both ends are
    # within 1e-12 of the 50-digit traces, relative, and each row's
    # error_estimate is at least its measured error.
    op = _laplacian(m)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    names = ("fprime_left", "fprime_right", "f3_left", "f3_right")
    for j in (0, m // 2):
        part = solve_particular(op.eigenvalues, geom, SIDE_PLUS, _stiff_forcing(geom, m, [j]))
        assert part.layers.any() and part.f_modal.shape[1] <= 33
        truth = np.array(_mp_traces(op.eigenvalues[j], geom.d, 1.0 + 5.0j))
        error = np.max(np.abs([getattr(part, name)[j] for name in names] - truth) / np.abs(truth))
        assert error <= 1e-12 and error <= part.error_estimate, (j, error, part.error_estimate)


@pytest.mark.parametrize("m", [512, 2048])
def test_stiff_forced_solve_agrees_with_the_solve_at_n_x_1025(m):
    # The stiff forced case on mode 0 with zero boundary data: the solve at
    # the default cap against the one at n_x = 1025, on the probe grid.
    # Stages capped below the layers of mode 0 are wrong here by 1.3e-5
    # (m = 512) and 4.1e-3 (m = 2048), and their reports pass.
    op = _laplacian(m)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    forcing = _stiff_forcing(geom, m, [0])
    sols = [solve_transmission(op, geom, 1.0, 3.0, forcing, None, SolveOptions(n_x=n_x))
            for n_x in (129, 1025)]
    assert all(sol.report.passed for sol in sols)
    fields = [[sol.field(side, geom.grid(side, sol.options.probe_points)) for side in SIDES]
              for sol in sols]
    gap = max(np.max(np.abs(a - b)) for a, b in zip(*fields))
    assert gap <= 1e-10 * max(np.max(np.abs(b)) for b in fields[1])


def test_stiff_and_soft_rows_of_one_call_keep_their_bytes():
    # m = 64 random forcing at the default cap: the stiff rows take the
    # layer-free route and the softest the stages, in one call, and every
    # row is the bytes of its solve alone (coefficients, layers, traces).
    m = 64
    op = _laplacian(m)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    forcing = _random_forcing(geom, m, np.random.default_rng(64))
    for side in SIDES:
        part = solve_particular(op.eigenvalues, geom, side, forcing)
        free = part.layers.any(axis=0)
        assert free.any() and not free.all()
        _check_per_mode_bytes(op.eigenvalues, geom, side, forcing, 129, [])


def test_a_forcing_that_never_chops_runs_to_the_cap(monkeypatch):
    # A spline table's forcing has coefficients that fall like k^-4, so it
    # does not chop by n_x = 2049: each mode refines to the cap in O(n)
    # banded work, and error_estimate reports the tail it stopped at.
    m, n_x = 4, 2049
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    forcing = _csv_forcing(geom, m, np.random.default_rng(7))
    sizes = []
    real = subproblem.solve_banded
    monkeypatch.setattr(subproblem, "solve_banded",
                        lambda lu, b: sizes.append(lu[0].size) or real(lu, b))
    part = solve_particular(op.eigenvalues, geom, SIDE_PLUS, forcing, n_x)
    assert part.active.size == m and part.f_modal.shape == (m, n_x)
    assert part.error_estimate > subproblem.CHOP_TOL
    assert max(sizes) <= m * n_x and len(sizes) <= 2 * 8  # lengths 17, 33, ..., 2049
    chopped = solve_particular(op.eigenvalues, geom, SIDE_PLUS, forcing, 129)
    assert chopped.error_estimate > part.error_estimate


@pytest.mark.parametrize("n", [5, 33])
def test_the_grid_table_is_memoized_read_only_and_exact_at_the_ends(n):
    # The report reads a side's series part through one table of T_k and
    # T_k' at all n probe points: inside, _point_table's basis bit for bit;
    # at t = -1 and 1, (+-1)^k and (+-1)^(k+1) k^2 / half exactly.
    assert subproblem.grid_table.cache_info().maxsize == 16
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    for side in SIDES:
        lo, hi = geom.interval(side)
        half = 0.5 * (hi - lo)
        for length in (1, 17, 129):
            table = subproblem.grid_table(lo, hi, n, length)
            assert subproblem.grid_table(lo, hi, n, length) is table
            assert table.shape == (length, 2 * n)
            with pytest.raises(ValueError):
                table[...] = table
            values, slopes = table[:, :n], table[:, n:]
            *_, inner, basis = subproblem._point_table(geom.grid(side, n), lo, hi, length)
            assert np.array_equal(inner, np.arange(n) % (n - 1) != 0)
            assert np.hstack([values[:, 1:-1], slopes[:, 1:-1]]).tobytes() == basis.tobytes()
            k = np.arange(length)
            for end, sign in ((0, -1.0), (-1, 1.0)):
                assert values[:, end].tobytes() == (sign**k).tobytes()
                assert slopes[:, end].tobytes() == (sign ** (k + 1) * k**2 / half).tobytes()

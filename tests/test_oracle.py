import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from bitrans import (
    BoundaryData,
    CylinderGeometry,
    DimensionMismatchError,
    ModalForcing,
    SIDE_MINUS,
    SIDE_PLUS,
    SIDES,
    SolveOptions,
    build_dirichlet_laplacian_1d,
    compare,
    convergence_study,
    direct_solve,
    from_matrix,
    manufactured_forced,
    manufactured_homogeneous,
    solve_transmission,
)
from bitrans import oracle


def _assemble_mode(mu: float, geometry: CylinderGeometry, k_minus: float, k_plus: float,
                   f_minus: np.ndarray, f_plus: np.ndarray, bc_hat: np.ndarray, n: int):
    """Reference: the sparse system of one mode, built entry by entry from lists.

    Unknown layout: [u_-, w_-, u_+, w_+], each of length n. Interior rows
    impose u'' + mu u = w and w'' + mu w = f; outer boundary rows fix the
    value and the one-sided derivative of u; interface rows impose the
    two continuity and the two flux conditions with one-sided stencils.
    """
    def stencil(h):
        return np.array([3.0, -4.0, 1.0]) / (2.0 * h)

    hm = geometry.c / (n - 1)
    hp = geometry.d / (n - 1)
    um, wm, up, wp = 0, n, 2 * n, 3 * n
    rows, cols, vals = [], [], []
    rhs = np.zeros(4 * n)
    req = [0]

    def add(col, val):
        rows.append(req[0])
        cols.append(col)
        vals.append(val)

    def next_row():
        req[0] += 1

    for base_u, base_w, h, fvals in ((um, wm, hm, f_minus), (up, wp, hp, f_plus)):
        for i in range(1, n - 1):
            add(base_u + i - 1, 1.0 / h**2)
            add(base_u + i, -2.0 / h**2 + mu)
            add(base_u + i + 1, 1.0 / h**2)
            add(base_w + i, -1.0)
            next_row()
            add(base_w + i - 1, 1.0 / h**2)
            add(base_w + i, -2.0 / h**2 + mu)
            add(base_w + i + 1, 1.0 / h**2)
            rhs[req[0]] = fvals[i]
            next_row()
    # Outer boundary: value and one-sided derivative of u at a and b.
    add(um, 1.0)
    rhs[req[0]] = bc_hat[0]
    next_row()
    dm = stencil(hm)
    add(um, -dm[0]); add(um + 1, -dm[1]); add(um + 2, -dm[2])
    rhs[req[0]] = bc_hat[1]
    next_row()
    add(up + n - 1, 1.0)
    rhs[req[0]] = bc_hat[2]
    next_row()
    dp = stencil(hp)
    add(up + n - 1, dp[0]); add(up + n - 2, dp[1]); add(up + n - 3, dp[2])
    rhs[req[0]] = bc_hat[3]
    next_row()
    # Interface: continuity of u and u', proportionality of w and w'.
    add(um + n - 1, 1.0); add(up, -1.0)
    next_row()
    add(um + n - 1, dm[0]); add(um + n - 2, dm[1]); add(um + n - 3, dm[2])
    add(up, -(-dp[0])); add(up + 1, -(-dp[1])); add(up + 2, -(-dp[2]))
    next_row()
    add(wm + n - 1, k_minus); add(wp, -k_plus)
    next_row()
    add(wm + n - 1, k_minus * dm[0]); add(wm + n - 2, k_minus * dm[1])
    add(wm + n - 3, k_minus * dm[2])
    add(wp, k_plus * dp[0]); add(wp + 1, k_plus * dp[1]); add(wp + 2, k_plus * dp[2])
    next_row()
    assert req[0] == 4 * n
    mat = csr_matrix((vals, (rows, cols)), shape=(4 * n, 4 * n))
    return mat, rhs


def _reference_direct_solve(op, geom, k_minus, k_plus, forcing, boundary, n):
    """Per-mode list assembly and SuperLU solve.

    Returns the fields, the per-mode backward errors, the per-mode
    list-assembled systems (sparse matrix, right-hand side) and the
    solutions in list order.
    """
    q = op.eigenvectors
    f_m = forcing.sample(SIDE_MINUS, geom.grid(SIDE_MINUS, n))
    f_p = forcing.sample(SIDE_PLUS, geom.grid(SIDE_PLUS, n))
    bc_hat = np.stack([q.T @ boundary.phi1_minus, q.T @ boundary.phi2_minus,
                       q.T @ boundary.phi1_plus, q.T @ boundary.phi2_plus])
    sols, backward, systems = [], [], []
    for j in range(op.m):
        mat, rhs = _assemble_mode(float(op.eigenvalues[j]), geom, k_minus, k_plus,
                                  f_m[j], f_p[j], bc_hat[:, j], n)
        sol = spsolve(mat, rhs)
        backward.append(np.max(np.abs(mat @ sol - rhs))
                        / (np.max(np.abs(mat).sum(axis=1)) * max(np.max(np.abs(sol)), 1e-300)
                           + np.max(np.abs(rhs)) + 1e-300))
        sols.append(sol)
        systems.append((mat, rhs))
    sols = np.array(sols)
    fields = {"u_minus": sols[:, :n], "w_minus": sols[:, n:2 * n],
              "u_plus": sols[:, 2 * n:3 * n], "w_plus": sols[:, 3 * n:]}
    return fields, np.array(backward), systems, sols


def _banded_in_list_order(ab: np.ndarray, n: int) -> np.ndarray:
    """The oracle's banded system as a dense matrix in the list assembly's order.

    The oracle interleaves the unknowns per node, u_-(x_i), w_-(x_i) in
    columns 2i, 2i+1 and u_+(x_i), w_+(x_i) in columns 2n+2i, 2n+2i+1; an
    interior node's two equations take the rows of its columns; rows 0, 1
    hold u(a), u'(a), rows 2n-2..2n+1 the u, u', w' and w interface
    conditions, rows 4n-2, 4n-1 hold u'(b), u(b).
    """
    lower, upper = oracle._BANDS
    size = 4 * n
    dense = np.zeros((size, size))
    for k in range(-lower, upper + 1):  # k = column - row
        col = np.arange(max(k, 0), size + min(k, 0))
        dense[col - k, col] = ab[upper - k, col]
    node = np.arange(n)
    to_col = np.empty(size, dtype=int)
    to_col[0:2 * n:2], to_col[1:2 * n:2] = node, n + node
    to_col[2 * n::2], to_col[2 * n + 1::2] = 2 * n + node, 3 * n + node
    inner = np.arange(1, n - 1)
    b = 4 * (n - 2)
    to_row = np.empty(size, dtype=int)
    for first, offset in ((0, 0), (2 * n, 2 * (n - 2))):
        to_row[first + 2 * inner] = offset + 2 * (inner - 1)
        to_row[first + 2 * inner + 1] = offset + 2 * (inner - 1) + 1
    to_row[[0, 1, size - 1, size - 2]] = b + np.arange(4)
    to_row[[2 * n - 2, 2 * n - 1, 2 * n + 1, 2 * n]] = b + 4 + np.arange(4)
    assert np.array_equal(np.sort(to_row), np.arange(size))
    assert np.array_equal(np.sort(to_col), np.arange(size))
    out = np.zeros_like(dense)
    out[np.ix_(to_row, to_col)] = dense
    return out


def _mode_bands(geom, k_minus, k_plus, n, mu):
    ab, interior = oracle._coupled_bands(geom, k_minus, k_plus, n)
    ab[oracle._BANDS[1], interior] += mu
    return ab


@pytest.fixture
def scalar_pi():
    return from_matrix(np.array([[-np.pi**2]]))


def test_homogeneous_single_branch(scalar_pi):
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    case = manufactured_homogeneous(scalar_pi, geom, 0, 1.0, 0.0)
    p1, p2 = case.psi()
    assert p1[0] == pytest.approx(1.0)
    assert p2[0] == pytest.approx(np.pi)
    xs = np.array([0.3])
    assert case.field(SIDE_PLUS, xs, 0)[0, 0] == pytest.approx(np.exp(np.pi * 0.3), rel=1e-14)


def test_homogeneous_cosh_even(scalar_pi):
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    case = manufactured_homogeneous(scalar_pi, geom, 0, 0.5, 0.5)
    _, p2 = case.psi()
    assert abs(p2[0]) < 1e-15
    xs = np.array([0.4])
    assert case.field(SIDE_PLUS, xs, 0)[0, 0] == pytest.approx(np.cosh(np.pi * 0.4), rel=1e-14)


def test_homogeneous_tc2_identically_zero_any_k(scalar_pi):
    # u'' + mu u = 0 pointwise, so both flux conditions hold for any k.
    geom = CylinderGeometry(-0.8, 0.0, 1.2)
    case = manufactured_homogeneous(scalar_pi, geom, 0, 0.7, -0.3)
    mu = scalar_pi.eigenvalues[0]
    g = np.array([geom.gamma])
    for km, kp in ((1.0, 5.0), (3.3, 0.2)):
        lhs = km * (case.field(SIDE_MINUS, g, 2) + mu * case.field(SIDE_MINUS, g, 0))
        rhs = kp * (case.field(SIDE_PLUS, g, 2) + mu * case.field(SIDE_PLUS, g, 0))
        assert np.max(np.abs(lhs)) < 1e-12 and np.max(np.abs(rhs)) < 1e-12


def test_homogeneous_invalid_inputs(scalar_pi):
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    with pytest.raises(DimensionMismatchError):
        manufactured_homogeneous(scalar_pi, geom, 4, 1.0, 0.0)
    with pytest.raises(ValueError):
        manufactured_homogeneous(scalar_pi, geom, 0, 0.0, 0.0)


def test_forced_constant_profile_reference():
    # r = 1, mu = -1, k+ = 2, k- = 1, zero interface values:
    # u_- = 2(cosh(xi) - 1), u_+ = cosh(xi) - 1, f = -w.
    op = from_matrix(np.array([[-1.0]]))
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    case = manufactured_forced(op, geom, 1.0, 2.0, 0, [1.0])
    xs = np.linspace(-1.0, 0.0, 5)
    exact_m = 2.0 * (np.cosh(xs) - 1.0)
    assert np.max(np.abs(case.field(SIDE_MINUS, xs, 0)[0] - exact_m)) < 1e-13
    xs_p = np.linspace(0.0, 1.0, 5)
    exact_p = np.cosh(xs_p) - 1.0
    assert np.max(np.abs(case.field(SIDE_PLUS, xs_p, 0)[0] - exact_p)) < 1e-13
    forcing = case.forcing()
    assert np.max(np.abs(forcing.sample(SIDE_MINUS, xs)[0] - (-2.0))) < 1e-13
    assert np.max(np.abs(forcing.sample(SIDE_PLUS, xs_p)[0] - (-1.0))) < 1e-13


def test_forced_flux_identity():
    # k- w- = k+ w+ identically along the axis, not just at the interface.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    km, kp = 1.3, 2.7
    case = manufactured_forced(op, geom, km, kp, 1, [0.4, -0.8, 0.2, 0.5], psi1=0.1, psi2=0.3)
    mu = op.eigenvalues[1]
    xs = np.array([geom.gamma, geom.gamma + 1e-3, geom.gamma - 1e-3])
    wm = case._mode_values(SIDE_MINUS, xs, 2) + mu * case._mode_values(SIDE_MINUS, xs, 0)
    wp = case._mode_values(SIDE_PLUS, xs, 2) + mu * case._mode_values(SIDE_PLUS, xs, 0)
    assert np.max(np.abs(km * wm - kp * wp)) < 1e-10


def test_forced_profile_degree_cap():
    op = from_matrix(np.array([[-1.0]]))
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        manufactured_forced(op, geom, 1.0, 1.0, 0, np.ones(8))


def test_direct_solve_zero_case():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    sol = direct_solve(op, geom, 1.0, 2.0, n_x=33)
    assert np.max(np.abs(sol.u_minus)) == 0.0
    assert np.max(np.abs(sol.u_plus)) == 0.0


def test_direct_solve_convergence_on_exact_case():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    case = manufactured_homogeneous(op, geom, [0, 2], [0.6, -0.2], [0.1, 0.4])
    table = convergence_study(case, "direct", [65, 129, 257], 1.0, 2.5)
    assert not table.floor
    assert table.fitted_rate == pytest.approx(2.0, abs=0.2)


def test_direct_agrees_with_representation_at_order_two():
    op = build_dirichlet_laplacian_1d(4, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    rng = np.random.default_rng(14)
    bc = BoundaryData(*rng.normal(size=(4, 4)))
    rep = solve_transmission(op, geom, 1.0, 3.0, None, bc)
    gaps = []
    for n in (65, 129, 257):
        oracle = direct_solve(op, geom, 1.0, 3.0, None, bc, n_x=n)
        gaps.append(compare(rep, oracle).sup)
    rates = [np.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
    assert min(rates) > 1.7


def test_exact_case_discrete_residual_truncation_order():
    # Substituting the closed form into the discrete operator leaves only
    # the truncation error, which must shrink at second order.
    op = from_matrix(np.array([[-4.0]]))
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    case = manufactured_homogeneous(op, geom, 0, 0.3, 0.6)
    bc = case.boundary_data()
    mu = op.eigenvalues[0]
    sups = []
    for n in (65, 129):
        mat, rhs = _assemble_mode(mu, geom, 1.5, 0.5,
                                  np.zeros(n), np.zeros(n),
                                  np.array([bc.phi1_minus[0], bc.phi2_minus[0],
                                            bc.phi1_plus[0], bc.phi2_plus[0]]), n)
        gm = geom.grid(SIDE_MINUS, n)
        gp = geom.grid(SIDE_PLUS, n)
        u_m = case.modal_field(gm, 0)[0]
        u_p = case.modal_field(gp, 0)[0]
        w_m = case.modal_field(gm, 2)[0] + mu * u_m
        w_p = case.modal_field(gp, 2)[0] + mu * u_p
        exact = np.concatenate([u_m, w_m, u_p, w_p])
        sups.append(np.max(np.abs(mat @ exact - rhs)))
    assert np.log2(sups[0] / sups[1]) > 1.7


def test_convergence_study_validation():
    op = build_dirichlet_laplacian_1d(2, 1.0)
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    case = manufactured_homogeneous(op, geom, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        convergence_study(case, "direct", [65, 129], 1.0, 1.0)
    with pytest.raises(ValueError):
        convergence_study(case, "finite-element", [65, 129, 257], 1.0, 1.0)


def test_representation_floor_flag_on_exact_case():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    case = manufactured_homogeneous(op, geom, [1], [0.4], [-0.2])
    table = convergence_study(case, "representation", [33, 65, 129], 1.0, 2.0)
    assert table.floor
    assert np.isnan(table.fitted_rate)
    rows = table.to_csv_rows()
    assert rows[0] == ("n_x", "error", "rate")
    assert all(row[2] == "floor" for row in rows[1:])


def test_forced_case_convergence_both_methods():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    case = manufactured_forced(op, geom, 1.0, 3.0, 2,
                               [0.5, -1.2, 0.8, 0.3, -0.6], psi1=0.3, psi2=-0.2)
    rep = convergence_study(case, "representation", [65, 129, 257])
    assert not rep.floor and rep.fitted_rate >= 1.8
    direct = convergence_study(case, "direct", [65, 129, 257])
    assert direct.fitted_rate == pytest.approx(2.0, abs=0.2)


def test_compare_identity_and_incompatibility():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    case = manufactured_homogeneous(op, geom, 0, 1.0, 0.5)
    metrics = compare(case, case)
    assert metrics.sup == 0.0 and metrics.l2_scaled == 0.0
    other_geom = CylinderGeometry(-0.5, 0.0, 0.9)
    other = manufactured_homogeneous(op, other_geom, 0, 1.0, 0.5)
    with pytest.raises(ValueError):
        compare(case, other)


def test_oracle_solution_field_orders():
    op = build_dirichlet_laplacian_1d(2, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    case = manufactured_homogeneous(op, geom, 0, 0.5, 0.1)
    sol = direct_solve(op, geom, 1.0, 2.0, case.forcing(), case.boundary_data(), n_x=129)
    xs = np.linspace(geom.gamma, geom.b, 9)
    for order in (0, 1, 2):
        approx = sol.modal_field(SIDE_PLUS, xs, order)[0]
        exact = case.modal_field(xs, order)[0]
        assert np.max(np.abs(approx - exact)) < 5e-3 * (1 + np.max(np.abs(exact)))
    with pytest.raises(ValueError):
        sol.modal_field(SIDE_PLUS, xs, 3)


# Modes whose gap is checked against the dense condition-number bound; only a
# few of m = 64, since each needs a dense inverse.
_COND_MODES = {1: (0,), 3: (0, 1, 2), 64: (0, 31, 63)}


@pytest.mark.parametrize("forced", [False, True], ids=["zero", "sine"])
@pytest.mark.parametrize("n_x", [33, 129, 257])
@pytest.mark.parametrize("m", [1, 3, 64])
def test_direct_solve_matches_per_mode_list_assembly(m, n_x, forced):
    # The banded assembly gives every mode the very system the list
    # assembly gives, entry for entry. Two backward-stable solves of one
    # system then differ by at most 2 cond(A) (beta_1 + beta_2) ||x||:
    # x^ - x = A^-1 r with ||r|| <= beta (||A|| ||x^|| + ||b||) and
    # ||b|| <= ||A|| ||x||. Observed: both backward errors below 2e-16,
    # cond(A) up to 2.3e10 (m = 64), the worst gap 1.2e-9 of ||x|| (m = 3,
    # n_x = 257) and never above a tenth of the bound.
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    boundary = BoundaryData(*np.random.default_rng(m).normal(size=(4, m)))
    forcing = (ModalForcing.sine(op, geom, SIDE_PLUS, min(1, m - 1), 1, 1.5) if forced
               else ModalForcing.zero(m, geom))
    sol = direct_solve(op, geom, 1.0, 3.0, forcing, boundary, n_x=n_x)
    _, ref_backward, systems, ref_sols = _reference_direct_solve(op, geom, 1.0, 3.0,
                                                                 forcing, boundary, n_x)
    new_sols = np.concatenate([sol.u_minus, sol.w_minus, sol.u_plus, sol.w_plus], axis=1)
    new_backward = np.array([
        np.max(np.abs(mat @ new - rhs))
        / (np.max(np.abs(mat).sum(axis=1)) * np.max(np.abs(new)) + np.max(np.abs(rhs)) + 1e-300)
        for (mat, rhs), new in zip(systems, new_sols)])
    assert sol.solve_residual <= 1e-15
    assert np.max(new_backward) <= 1e-15
    assert np.max(ref_backward) <= 1e-15
    for j, (mat, _) in enumerate(systems):
        assert np.array_equal(
            _banded_in_list_order(_mode_bands(geom, 1.0, 3.0, n_x, op.eigenvalues[j]), n_x),
            mat.toarray()), j
    for j in _COND_MODES[m]:
        new, ref = new_sols[j], ref_sols[j]
        scale = max(np.max(np.abs(new)), np.max(np.abs(ref)))
        bound = (2.0 * np.linalg.cond(systems[j][0].toarray(), np.inf)
                 * (new_backward[j] + ref_backward[j]) * scale)
        assert np.max(np.abs(new - ref)) <= bound, j


def test_wrong_interface_flux_sign_in_pattern_is_caught(monkeypatch):
    # Flip the sign of k+ in the w-proportionality row (k- w- = k+ w+ at
    # the interface). The equivalence with the list assembly breaks, and
    # the oracle leaves the manufactured forced solution.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    km, kp, n = 1.0, 3.0, 129
    case = manufactured_forced(op, geom, km, kp, 2,
                               [0.5, -1.2, 0.8, 0.3, -0.6], psi1=0.3, psi2=-0.2)
    forcing, boundary = case.forcing(), case.boundary_data()

    def gap(sol):
        return max(float(np.max(np.abs(sol.field(side, sol.grid(side))
                                       - case.field(side, sol.grid(side)))))
                   for side in SIDES)

    right = direct_solve(op, geom, km, kp, forcing, boundary, n_x=n)
    real = oracle._coupled_bands

    def flipped(geometry, k_minus, k_plus, n_pts):
        ab, interior = real(geometry, k_minus, k_plus, n_pts)
        row = col = 2 * n_pts + 1  # w-proportionality row, column w_+ at gamma
        ab[oracle._BANDS[1] + row - col, col] *= -1.0
        return ab, interior

    _, _, systems, _ = _reference_direct_solve(op, geom, km, kp, forcing, boundary, n)
    mu, listed = op.eigenvalues[0], systems[0][0].toarray()
    assert np.array_equal(_banded_in_list_order(_mode_bands(geom, km, kp, n, mu), n), listed)
    monkeypatch.setattr(oracle, "_coupled_bands", flipped)
    assert not np.array_equal(_banded_in_list_order(_mode_bands(geom, km, kp, n, mu), n),
                              listed)
    wrong = direct_solve(op, geom, km, kp, forcing, boundary, n_x=n)
    assert gap(right) < 1e-3
    assert gap(wrong) > 1e-2

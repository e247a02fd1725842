from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.sparse import csr_matrix

from bitrans import (
    AnomalyError,
    BoundaryData,
    CylinderGeometry,
    DimensionMismatchError,
    InvalidGeometryError,
    ModalForcing,
    ResolutionError,
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
    ``f_minus``, ``f_plus`` (n, ...) and ``bc_hat`` (4, ...) may carry a
    batch of modes' data after their first axis; the matrix is mu's alone.
    """
    def stencil(h):
        return np.array([3.0, -4.0, 1.0]) / (2.0 * h)

    hm = geometry.c / (n - 1)
    hp = geometry.d / (n - 1)
    um, wm, up, wp = 0, n, 2 * n, 3 * n
    rows, cols, vals = [], [], []
    rhs = np.zeros((4 * n,) + np.shape(bc_hat)[1:])  # a batch of right-hand sides
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


def _list_systems(op, geom, k_minus, k_plus, forcing, boundary, n):
    """Every mode's list-assembled system: (sparse matrices, right-hand sides (m, 4n)).

    Two ``_assemble_mode`` calls give them all. mu enters only the entries
    that differ between mu = 0 and mu = 1, the interior diagonal, and
    -2/h^2 + 0 + mu rounds as -2/h^2 + mu does, so mode j's matrix is
    ``_assemble_mode``'s at mu_j entry for entry. The right-hand sides are
    linear in the data and assembled for all modes at once.
    """
    q = op.eigenvectors
    f_m = forcing.sample(SIDE_MINUS, geom.grid(SIDE_MINUS, n))
    f_p = forcing.sample(SIDE_PLUS, geom.grid(SIDE_PLUS, n))
    bc_hat = np.stack([q.T @ boundary.phi1_minus, q.T @ boundary.phi2_minus,
                       q.T @ boundary.phi1_plus, q.T @ boundary.phi2_plus])
    base, rhs = _assemble_mode(0.0, geom, k_minus, k_plus, f_m.T, f_p.T, bc_hat, n)
    unit, _ = _assemble_mode(1.0, geom, k_minus, k_plus, f_m.T, f_p.T, bc_hat, n)
    reach = unit.data != base.data
    mats = []
    for mu in op.eigenvalues:
        mat = base.copy()
        mat.data = base.data + mu * reach
        mats.append(mat)
    return mats, rhs.T


def _interleaved_order(n: int):
    """Row and column orders that put a list matrix in node-interleaved order, bandwidth 5.

    Position c of the column order holds the list column of the unknown
    there: u_-(x_i), w_-(x_i) at 2i, 2i+1 and u_+(x_i), w_+(x_i) at
    2n+2i, 2n+2i+1. An interior node's two equations take the rows of its
    columns; rows 0, 1 hold u(a), u'(a), rows 2n-2..2n+1 the u, u', w'
    and w interface conditions, rows 4n-2, 4n-1 hold u'(b), u(b).
    """
    size, b = 4 * n, 4 * (n - 2)
    node, inner = np.arange(n), np.arange(1, n - 1)
    to_col = np.empty(size, dtype=int)
    to_col[0:2 * n:2], to_col[1:2 * n:2] = node, n + node
    to_col[2 * n::2], to_col[2 * n + 1::2] = 2 * n + node, 3 * n + node
    to_row = np.empty(size, dtype=int)
    for first, offset in ((0, 0), (2 * n, 2 * (n - 2))):
        to_row[first + 2 * inner] = offset + 2 * (inner - 1)
        to_row[first + 2 * inner + 1] = offset + 2 * (inner - 1) + 1
    to_row[[0, 1, size - 1, size - 2]] = b + np.arange(4)
    to_row[[2 * n - 2, 2 * n - 1, 2 * n + 1, 2 * n]] = b + 4 + np.arange(4)
    assert np.array_equal(np.sort(to_row), np.arange(size))
    assert np.array_equal(np.sort(to_col), np.arange(size))
    return to_row, to_col


def _banded_lu_solve(mat, rhs, order) -> np.ndarray:
    """LAPACK banded LU with partial pivoting of a list system in ``_interleaved_order``.

    Every entry of the list matrix lies within 5 of the diagonal in that
    order, so the factored matrix is the list matrix itself, permuted.
    """
    to_row, to_col = order
    entries = mat.tocoo()
    row, col = np.argsort(to_row)[entries.row], np.argsort(to_col)[entries.col]
    assert np.max(np.abs(row - col)) <= 5
    ab = np.zeros((11, to_col.size))
    ab[5 + row - col, col] = entries.data
    x = np.empty(to_col.size)
    x[to_col] = solve_banded((5, 5), ab, rhs[to_row])
    return x


def _reference_direct_solve(op, geom, k_minus, k_plus, forcing, boundary, n):
    """Per-mode list assembly and banded LU (``_banded_lu_solve``).

    Returns the per-mode backward errors, the per-mode list-assembled
    systems (sparse matrix, right-hand side) and the solutions in list order.
    """
    systems = list(zip(*_list_systems(op, geom, k_minus, k_plus, forcing, boundary, n)))
    order = _interleaved_order(n)
    sols = np.array([_banded_lu_solve(mat, rhs, order) for mat, rhs in systems])
    return _backward_errors(systems, sols), systems, sols


def _backward_errors(systems, sols) -> np.ndarray:
    """Per mode max|Ax - b| / (||A|| ||x|| + ||b||) over every row of the list matrix."""
    return np.array([
        np.max(np.abs(mat @ x - rhs))
        / (np.max(np.abs(mat).sum(axis=1)) * max(np.max(np.abs(x)), 1e-300)
           + np.max(np.abs(rhs)) + 1e-300)
        for (mat, rhs), x in zip(systems, sols)])


def _list_order(sol) -> np.ndarray:
    """An oracle solution's fields as the list assembly orders its unknowns, shape (m, 4n)."""
    return np.concatenate([sol.u_minus, sol.w_minus, sol.u_plus, sol.w_plus], axis=1)


def _spied_direct_solve(monkeypatch, *args, **kwargs):
    """``direct_solve(*args, **kwargs)`` with the bands it factors and the end table it builds."""
    seen = {}
    factor, end_rows = oracle.factor_banded, oracle._end_rows

    def factor_spy(ab):
        seen["bands"] = np.array(ab)
        return factor(ab)

    def end_rows_spy(*end_args):
        seen["rows"] = end_rows(*end_args)
        return seen["rows"]

    monkeypatch.setattr(oracle, "factor_banded", factor_spy)
    monkeypatch.setattr(oracle, "_end_rows", end_rows_spy)
    sol = direct_solve(*args, **kwargs)
    return sol, seen["bands"], seen["rows"]


def _dense_in_list_order(bands: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """One mode's system as the oracle solves it, dense, in the list assembly's order.

    ``bands`` (3, n - 2, side) are the mode's interior bands as factored
    (superdiagonal, diagonal, subdiagonal) and ``rows`` the end table of
    ``oracle._end_rows``. Interior node i of a side owns the list rows
    2(i - 1) (u'' + mu u - w) and 2(i - 1) + 1 (w'' + mu w), the plus
    side's after the minus side's; the 8 end rows follow as u(a), u'(a),
    u(b), u'(b), continuity of u and u', proportionality of w and w'.
    """
    dense = np.zeros((4 * n, 4 * n))
    inner = np.arange(1, n - 1)
    node = np.r_[0:4, n - 4:n]  # the table's slots
    list_row = 4 * (n - 2) + np.array([0, 1, 4, 5, 7, 6, 3, 2])  # the table's rows
    for side in range(2):
        off = bands[0, 0, side]
        # The sweeps move the end values with the same 1/h^2 as the bands hold.
        assert np.all(bands[0, :, side] == off) and np.all(bands[2, :, side] == off)
        row = 2 * (n - 2) * side + 2 * (inner - 1)  # the u rows; each w row follows its u row
        for kind in range(2):
            col = (2 * side + kind) * n + inner
            dense[row + kind, col - 1] = dense[row + kind, col + 1] = off
            dense[row + kind, col] = bands[1, :, side]
            dense[np.ix_(list_row, (2 * side + kind) * n + node)] = rows[side, :, :, kind]
        dense[row, (2 * side + 1) * n + inner] = -1.0  # the u rows' w
    return dense


@pytest.fixture
def scalar_pi():
    return from_matrix(np.array([[-np.pi**2]]))


def test_homogeneous_single_branch(scalar_pi):
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    case = manufactured_homogeneous(scalar_pi, geom, 0, 1.0, 0.0)
    p1, p2 = case.psi()
    assert p1[0] == pytest.approx(1.0, rel=1e-6, abs=0.0)
    assert p2[0] == pytest.approx(np.pi, rel=1e-6, abs=0.0)
    xs = np.array([0.3])
    assert case.field(SIDE_PLUS, xs, 0)[0, 0] == pytest.approx(np.exp(np.pi * 0.3),
                                                             rel=1e-14, abs=0.0)


def test_homogeneous_cosh_even(scalar_pi):
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    case = manufactured_homogeneous(scalar_pi, geom, 0, 0.5, 0.5)
    _, p2 = case.psi()
    assert abs(p2[0]) < 1e-15
    xs = np.array([0.4])
    assert case.field(SIDE_PLUS, xs, 0)[0, 0] == pytest.approx(np.cosh(np.pi * 0.4),
                                                             rel=1e-14, abs=0.0)


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
    wm = case.modal_field(SIDE_MINUS, xs, 2)[1] + mu * case.modal_field(SIDE_MINUS, xs, 0)[1]
    wp = case.modal_field(SIDE_PLUS, xs, 2)[1] + mu * case.modal_field(SIDE_PLUS, xs, 0)[1]
    assert np.max(np.abs(km * wm - kp * wp)) < 1e-10


def test_forced_profile_degree_cap():
    op = from_matrix(np.array([[-1.0]]))
    geom = CylinderGeometry(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        manufactured_forced(op, geom, 1.0, 1.0, 0, np.ones(8))
    case = manufactured_forced(op, geom, 1.0, 1.0, 0, np.ones(7))  # degree 6 is the cap
    assert case.polys.shape == (2, 7, 1)


def test_direct_solve_zero_case():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    sol = direct_solve(op, geom, 1.0, 2.0, n_x=33)
    assert np.max(np.abs(sol.u_minus)) == 0.0
    assert np.max(np.abs(sol.u_plus)) == 0.0


@pytest.mark.parametrize("worst, passes", [(1e-12, True), (np.nextafter(1e-12, 1.0), False)])
def test_the_backward_error_gate_admits_exactly_its_threshold(monkeypatch, worst, passes):
    # direct_solve reads its backward error through float() alone; pinned
    # on the 1e-12 gate it passes, one ulp above it refuses.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    monkeypatch.setattr(oracle, "float", lambda value: worst, raising=False)
    if passes:
        direct_solve(op, CylinderGeometry(-0.7, 0.0, 0.9), 1.0, 2.0, n_x=33)
    else:
        with pytest.raises(AnomalyError, match="backward error"):
            direct_solve(op, CylinderGeometry(-0.7, 0.0, 0.9), 1.0, 2.0, n_x=33)


def test_a_step_whose_square_overflows_to_inf_is_refused():
    # A numpy-float length above about 1e154 overflows h^2 to inf without
    # raising, so 1 / h^2 is 0, the lower side of the step gate.
    op = build_dirichlet_laplacian_1d(2, 1.0)
    geom = CylinderGeometry(np.float64(-1e160), 0.0, 1.0)
    with np.errstate(over="ignore"), pytest.raises(InvalidGeometryError, match="axial steps"):
        direct_solve(op, geom, 1.0, 2.0, n_x=33)


@pytest.mark.parametrize("err, floor", [(oracle.FLOOR, True),
                                        (np.nextafter(oracle.FLOOR, 1.0), False)])
def test_the_convergence_floor_includes_its_threshold(monkeypatch, err, floor):
    # Errors exactly at FLOOR are flagged, not fitted; one ulp above, fitted.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    case = manufactured_homogeneous(op, CylinderGeometry(-0.7, 0.0, 0.9), 0, 0.6, 0.1)
    monkeypatch.setattr(oracle, "compare", lambda *args: SimpleNamespace(sup=err))
    table = convergence_study(case, "representation", [33, 65, 129], 1.0, 2.0)
    assert table.floor is floor
    assert bool(np.isnan(table.fitted_rate)) is floor


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
        u_m = case.modal_field(SIDE_MINUS, gm, 0)[0]
        u_p = case.modal_field(SIDE_PLUS, gp, 0)[0]
        w_m = case.modal_field(SIDE_MINUS, gm, 2)[0] + mu * u_m
        w_p = case.modal_field(SIDE_PLUS, gp, 2)[0] + mu * u_p
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
    with pytest.raises(ValueError, match="diffusivities required"):
        convergence_study(case, "direct", [65, 129, 257], 1.0)


def test_convergence_study_refuses_other_diffusivities_than_the_forced_cases():
    # A forced case holds only for its own k: given k = (5, 5) once studied (1, 2) silently.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    case = manufactured_forced(op, geom, 1.0, 2.0, 1, [0.5, -0.3])
    levels = [33, 65, 129]
    for given in ((5.0, 5.0), (1.0, 5.0), (None, 5.0), (5.0, None)):
        with pytest.raises(ValueError, match="differ from the forced case's own"):
            convergence_study(case, "representation", levels, *given)
    errors = convergence_study(case, "representation", levels).errors
    for given in ((1.0, 2.0), (1.0, None), (None, 2.0)):
        assert convergence_study(case, "representation", levels, *given).errors == errors


@pytest.fixture(scope="module")
def op_512():
    return build_dirichlet_laplacian_1d(512, 1.0)


def test_a_zero_coefficient_contributes_exactly_zero(op_512):
    # Mode 267 (s = 699.5) on (-1.3, 0, 0.7) with a2 = 0: the absent branch
    # once read 0 * e^{909} = NaN at a, and boundary_data raised on a finite
    # closed form (value e^{-909}, 0 in floating point, at a; 4.49e212 at b).
    geom = CylinderGeometry(-1.3, 0.0, 0.7)
    case = manufactured_homogeneous(op_512, geom, 267, 1.0, 0.0)
    s = np.sqrt(-op_512.eigenvalues[267])
    bc = case.boundary_data()
    for (value, slope), x in (((bc.phi1_minus, bc.phi2_minus), geom.a),
                              ((bc.phi1_plus, bc.phi2_plus), geom.b)):
        modal = np.zeros((2, 512))
        modal[:, 267] = np.exp(s * (x - geom.gamma)), s * np.exp(s * (x - geom.gamma))
        assert np.array_equal(value, op_512.from_modal(modal[0]))
        assert np.array_equal(slope, op_512.from_modal(modal[1]))
    values = [case.modal_field(side, x)[267, 0] for side, x in ((SIDE_MINUS, geom.a),
                                                                (SIDE_PLUS, geom.b))]
    assert values[0] == 0.0 and 4.48e212 < values[1] < 4.50e212


@pytest.mark.parametrize("build", [
    lambda op, geom: manufactured_homogeneous(op, geom, 0, 1.0, 1.0),
    lambda op, geom: manufactured_forced(op, geom, 1.0, 3.0, 0, [1.0, 0.5]),
], ids=["homogeneous", "forced"])
def test_a_closed_form_that_overflows_is_refused_at_build(op_512, build):
    # Mode 0 at m = 512 (s near 1026) overflows at a on (-0.7, 0, 1.3). It
    # once built, warned four times and failed later in BoundaryData. Any
    # warning is an error here (filterwarnings), so the build must emit none.
    with pytest.raises(ValueError, match="mode 0, minus side: .* not finite"):
        build(op_512, CylinderGeometry(-0.7, 0.0, 1.3))


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


def test_rate_table_rows_of_a_fitted_study():
    table = oracle.RateTable("direct", (65, 129, 257), (1e-3, 2.5e-4, 6.25e-5), (2.0, 2.0), 2.0,
                             False)
    assert table.to_csv_rows() == [("n_x", "error", "rate"), ("65", "0.001", ""),
                                   ("129", "0.00025", "2.0"), ("257", "6.25e-05", "2.0")]


def test_forced_case_convergence_both_methods():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    case = manufactured_forced(op, geom, 1.0, 3.0, 2,
                               [0.5, -1.2, 0.8, 0.3, -0.6], psi1=0.3, psi2=-0.2)
    rep = convergence_study(case, "representation", [65, 129, 257])
    assert rep.floor  # the Chebyshev particular part is at rounding on every level
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


@pytest.mark.parametrize("end", ["a", "gamma", "b"])
def test_compare_requires_the_same_geometry_exactly(end):
    # Solutions of geometries 1e-7 apart solve different problems. A
    # relative tolerance on the end points once let compare measure such a
    # pair (a or b shifted) instead of refusing it. An equal geometry built
    # anew still compares.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    case = manufactured_homogeneous(op, geom, 0, 1.0, 0.5)
    twin = manufactured_homogeneous(op, CylinderGeometry(-0.7, 0.0, 0.9), 0, 1.0, 0.5)
    assert compare(case, twin).sup == 0.0
    shifted = replace(geom, **{end: getattr(geom, end) + 1e-7})
    with pytest.raises(ValueError, match="geometries differ"):
        compare(case, manufactured_homogeneous(op, shifted, 0, 1.0, 0.5))


def test_compare_requires_the_same_section_operator():
    # Solves on two Laplacians of one size once compared by their sizes
    # alone and gave sup 0.365 on a pair of different problems. An
    # operator rebuilt from the same arguments still compares.
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    short, long_ = build_dirichlet_laplacian_1d(8, 1.0), build_dirichlet_laplacian_1d(8, 2.0)
    bc = BoundaryData(*np.random.default_rng(0).standard_normal((4, 8)))
    sol = solve_transmission(short, geom, 1.0, 3.0, None, bc)
    with pytest.raises(ValueError, match=r"section operators differ .*L=1\.0.*L=2\.0"):
        compare(sol, solve_transmission(long_, geom, 1.0, 3.0, None, bc))
    twin = solve_transmission(build_dirichlet_laplacian_1d(8, 1.0), geom, 1.0, 3.0, None, bc)
    assert compare(sol, twin).sup == 0.0


def test_section_operators_compare_by_their_spectral_data():
    op = build_dirichlet_laplacian_1d(8, 1.0)
    assert op == build_dirichlet_laplacian_1d(8, 1.0)
    assert op == replace(op, label="renamed")  # the label is provenance only
    assert (op == build_dirichlet_laplacian_1d(8, 2.0)) is False
    assert (op == build_dirichlet_laplacian_1d(9, 1.0)) is False
    assert op.__eq__("op") is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(op)


def test_oracle_solution_field_orders():
    # A forced case too: its w = u'' + mu u differs between the sides (k+ r
    # against k- r), where a homogeneous case's is zero on both.
    op = build_dirichlet_laplacian_1d(2, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 0.9)
    for case in (manufactured_homogeneous(op, geom, 0, 0.5, 0.1),
                 manufactured_forced(op, geom, 1.0, 2.0, 0, [0.5, -0.4, 0.3], psi1=0.2)):
        sol = direct_solve(op, geom, 1.0, 2.0, case.forcing(), case.boundary_data(), n_x=129)
        for side in SIDES:
            xs = geom.grid(side, 9)
            for order in (0, 1, 2):
                approx = sol.modal_field(side, xs, order)[0]
                exact = case.modal_field(side, xs, order)[0]
                assert np.max(np.abs(approx - exact)) < 5e-3 * (1 + np.max(np.abs(exact)))
    with pytest.raises(ValueError):
        sol.modal_field(SIDE_PLUS, xs, 3)


def test_oracle_fields_refuse_points_off_their_interval():
    # On (-0.7, 0, 1.3), x = 1.0 lies on the plus interval and x = 5 beyond
    # b: the splines once extrapolated there (x = 5 gave -1342). Points
    # within 1e-10 of the length outside an end take the end, as
    # SubproblemSolution's do.
    op, geom, forcing, boundary = _case(3)
    sol = direct_solve(op, geom, 1.0, 3.0, forcing, boundary, n_x=65)
    for side, x in ((SIDE_MINUS, 1.0), (SIDE_PLUS, 5.0), (SIDE_PLUS, -0.1)):
        for order in (0, 1, 2):
            with pytest.raises(ValueError, match=f"evaluation points outside .* side '{side}'"):
                sol.field(side, [x], order)
    nudged = sol.field(SIDE_MINUS, [geom.a - 1e-11, geom.gamma + 1e-11], 2)
    assert np.array_equal(nudged, sol.field(SIDE_MINUS, [geom.a, geom.gamma], 2))


@pytest.mark.parametrize("bad", [True, 0, 5.5])
def test_compare_and_convergence_study_check_probe_points(bad):
    # True was taken as 1 point, 0 ended in numpy's zero-size error and 5.5
    # in a TypeError; the grid gate now refuses each up front.
    op = build_dirichlet_laplacian_1d(3, 1.0)
    case = manufactured_forced(op, CylinderGeometry(-0.7, 0.0, 1.3), 1.0, 3.0, 1, [1.0])
    error = ResolutionError if bad == 0 else ValueError
    with pytest.raises(error, match="probe_points"):
        compare(case, case, bad)
    for method in ("representation", "direct"):
        with pytest.raises(error, match="probe_points"):
            convergence_study(case, method, [33, 65, 129], probe_points=bad)


# Modes whose gap is checked against the dense condition-number bound; only a
# few of m = 64, since each needs a dense inverse.
_COND_MODES = {1: (0,), 3: (0, 1, 2), 64: (0, 31, 63)}


def _case(m, geom=None, forced=True):
    """Operator, geometry, seed-m boundary data and a plus-side sine (or zero) forcing."""
    op = build_dirichlet_laplacian_1d(m, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3) if geom is None else geom
    boundary = BoundaryData(*np.random.default_rng(m).normal(size=(4, m)))
    forcing = (ModalForcing.sine(op, geom, SIDE_PLUS, min(1, m - 1), 1, 1.5) if forced
               else ModalForcing.zero(m, geom))
    return op, geom, forcing, boundary


@pytest.mark.parametrize("forced", [False, True], ids=["zero", "sine"])
@pytest.mark.parametrize("n_x", [33, 129, 257])
@pytest.mark.parametrize("m", [1, 3, 64])
def test_direct_solve_matches_per_mode_list_assembly(monkeypatch, m, n_x, forced):
    # The interior bands the oracle factors and its end table give every
    # mode the very system the list assembly gives, entry for entry. Two
    # backward-stable solves of one system then differ by at most
    # 2 cond(A) (beta_1 + beta_2) ||x||: x^ - x = A^-1 r with
    # ||r|| <= beta (||A|| ||x^|| + ||b||) and ||b|| <= ||A|| ||x||.
    # Observed: both backward errors below 2e-16, cond(A) up to 2.3e10
    # (m = 64), the worst gap 1.2e-9 of ||x|| (m = 3, n_x = 257) and never
    # above 0.11 of the bound.
    op, geom, forcing, boundary = _case(m, forced=forced)
    sol, bands, rows = _spied_direct_solve(monkeypatch, op, geom, 1.0, 3.0, forcing, boundary,
                                           n_x=n_x)
    ref_backward, systems, ref_sols = _reference_direct_solve(op, geom, 1.0, 3.0,
                                                              forcing, boundary, n_x)
    new_sols = _list_order(sol)
    new_backward = _backward_errors(systems, new_sols)
    assert sol.solve_residual <= 1e-15
    assert np.max(new_backward) <= 1e-15
    assert np.max(ref_backward) <= 1e-15
    assert bands.shape == (3, n_x - 2, m, 2) and rows.shape == (2, 8, 8, 2)
    zero = np.zeros(n_x)
    for j, (mat, _) in enumerate(systems):
        listed, _ = _assemble_mode(op.eigenvalues[j], geom, 1.0, 3.0, zero, zero, np.zeros(4), n_x)
        assert (mat != listed).nnz == 0, j
        assert np.array_equal(_dense_in_list_order(bands[:, :, j], rows, n_x), listed.toarray()), j
    for j in _COND_MODES[m]:
        new, ref = new_sols[j], ref_sols[j]
        scale = max(np.max(np.abs(new)), np.max(np.abs(ref)))
        bound = (2.0 * np.linalg.cond(systems[j][0].toarray(), np.inf)
                 * (new_backward[j] + ref_backward[j]) * scale)
        assert np.max(np.abs(new - ref)) <= bound, j


def test_wrong_interface_flux_sign_in_pattern_is_caught(monkeypatch):
    # Flip the sign of k+ in the w-proportionality row (k- w- = k+ w+ at
    # the interface) of the end table. The equivalence with the list
    # assembly breaks, and the oracle leaves the manufactured forced solution.
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

    def dense(sol_args):
        _, bands, rows = _spied_direct_solve(monkeypatch, *sol_args, n_x=n)
        return _dense_in_list_order(bands[:, :, 0], rows, n)

    args = (op, geom, km, kp, forcing, boundary)
    right = direct_solve(*args, n_x=n)
    listed = _list_systems(*args, n)[0][0].toarray()
    assert np.array_equal(dense(args), listed)
    real = oracle._end_rows

    def flipped(*end_args):
        rows = real(*end_args)
        rows[SIDES.index(SIDE_PLUS), 5, 0, 1] *= -1.0  # w-proportionality row, w_+ at gamma
        return rows

    monkeypatch.setattr(oracle, "_end_rows", flipped)
    assert not np.array_equal(dense(args), listed)
    wrong = direct_solve(*args, n_x=n)
    assert gap(right) < 1e-3
    assert gap(wrong) > 1e-2


@pytest.mark.parametrize("ratio", [3.0, 1e4])
@pytest.mark.parametrize("forced", [False, True], ids=["zero", "sine"])
@pytest.mark.parametrize("n_x", [33, 129])
@pytest.mark.parametrize("m", [1, 3, 64])
def test_direct_solve_backward_error_matches_the_dense_list_matrix(monkeypatch, m, n_x, forced,
                                                                    ratio):
    # The gate forms the row sums of |A_j| and the residual A_j x - b_j
    # over every row from the interior constants and the end table; the
    # reference forms them from each mode's dense list matrix. At rounding
    # level the two residuals differ by rounding alone: each of a row's at
    # most 8 terms is off by eps/2 of its size, so the two backward errors
    # differ by at most 8 eps (observed: equal). Two perturbations lift the
    # backward error far above that rounding and below the 1e-12 gate, and
    # there the two must agree to 1e-2 relative; a missing row or a wrong
    # row sum shows as a factor. Every sweep output perturbed by 1e-13
    # relative (scaled up by ||A|| over the interior rows' largest row
    # sum) moves the interior rows: backward errors of 6.0e-14 to 1.7e-13,
    # agreement to 5.7e-4. The end values of the 8 x 8 solve moved alone
    # move only the 8 end rows, since the interior follows them through
    # the sweeps' responses; each mode's move is scaled to an end-row
    # backward error of 1e-13, agreement to 3.2e-6. At k+/k- = 1e4 the
    # largest row sum of |A_j| is an end row's, so the end rows' share of
    # ||A|| counts too.
    op, geom, forcing, boundary = _case(m, forced=forced)
    args = (op, geom, 1.0, ratio, forcing, boundary)
    systems = list(zip(*_list_systems(*args, n_x)))
    row_sums = [np.abs(mat).sum(axis=1).A1 for mat, _ in systems]
    assert all((np.argmax(sums) >= 4 * (n_x - 2)) == (ratio == 1e4) for sums in row_sums)
    eps = np.finfo(float).eps
    sol = direct_solve(*args, n_x=n_x)
    assert abs(sol.solve_residual - np.max(_backward_errors(systems, _list_order(sol)))) <= 8 * eps
    scale = np.array([np.max(sums) * np.max(np.abs(x)) + np.max(np.abs(rhs))
                      for sums, (_, rhs), x in zip(row_sums, systems, _list_order(sol))])
    lift = max(np.max(sums) / np.max(sums[:4 * (n_x - 2)]) for sums in row_sums)
    rng = np.random.default_rng(m)
    real_sweep, real_ends = oracle.solve_banded, np.linalg.solve

    def sweep(lu, b):
        x = real_sweep(lu, b)
        return x * (1.0 + 1e-13 * lift * rng.standard_normal(x.shape))

    def ends(a, b):
        x = real_ends(a, b)
        move = rng.standard_normal(x.shape)
        rows = np.max(np.abs(a @ move), axis=(1, 2))
        return x + (1e-13 * scale / rows)[:, None, None] * move

    for owner, name, perturbed in ((oracle, "solve_banded", sweep), (np.linalg, "solve", ends)):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, perturbed)
            sol = direct_solve(*args, n_x=n_x)
        dense = np.max(_backward_errors(systems, _list_order(sol)))
        assert dense > 100 * eps
        assert sol.solve_residual == pytest.approx(dense, rel=1e-2, abs=0.0)


@pytest.mark.parametrize("m", [1, 64])
def test_direct_solve_is_one_pass_over_all_modes(monkeypatch, m):
    # One factorization of every (mode, side) interior, one sweep of the w
    # rows and one of the u rows, and one batched 8 x 8 solve for all modes.
    op, geom, forcing, boundary = _case(m)
    calls = {"factor_banded": [], "solve_banded": []}
    for name, seen in calls.items():
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name,
                            lambda *a, real=real, seen=seen: seen.append(a) or real(*a))
    solves, real_solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a) or real_solve(a, b))
    direct_solve(op, geom, 1.0, 3.0, forcing, boundary, n_x=65)
    (ab,), = calls["factor_banded"]
    assert np.shape(ab) == (3, 63, m, 2)
    assert len(calls["solve_banded"]) == 2
    assert [np.shape(a) for a in solves] == [(m, 8, 8)]


# Largest gap max|x - x_ref| / max|x_ref| over a case's modes, measured on
# the grid below between the one-pass solve and per-mode banded LU with
# partial pivoting of the list matrices (``_banded_lu_solve``; backward
# errors below 3e-16 on both sides): 8.8e-8 on (-0.7, 0, 1.3) and 4.4e-6 on
# (-1e-3, 0, 1), both at n_x = 1025, where the minus step of about 1e-6
# puts cond(A) near 1e12. Each tolerance is about ten times its geometry's
# measured gap.
_LU_GAP_TOL = {"standard": 1e-6, "short": 5e-5}


@pytest.mark.parametrize("shape", ["standard", "short"])
@pytest.mark.parametrize("ratio", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("n_x", [33, 129, 1025])
@pytest.mark.parametrize("m", [1, 3, 64, 256])
def test_one_pass_solve_matches_per_mode_banded_lu(m, n_x, ratio, shape):
    geom = None if shape == "standard" else CylinderGeometry(-1e-3, 0.0, 1.0)
    op, geom, forcing, boundary = _case(m, geom)
    sol = direct_solve(op, geom, 1.0, ratio, forcing, boundary, n_x=n_x)
    assert sol.solve_residual <= 1e-12
    ref_backward, systems, refs = _reference_direct_solve(op, geom, 1.0, ratio,
                                                          forcing, boundary, n_x)
    sols = _list_order(sol)
    assert np.max(_backward_errors(systems, sols)) <= 1e-12
    assert np.max(ref_backward) <= 1e-12
    assert np.max(np.abs(sols - refs)) <= _LU_GAP_TOL[shape] * np.max(np.abs(refs))


def test_direct_solve_checks_its_grid_size_up_front():
    op = build_dirichlet_laplacian_1d(4, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    with pytest.raises(ValueError, match="n_x must be an integer"):
        direct_solve(op, geom, 1.0, 3.0, n_x=129.0)
    with pytest.raises(ResolutionError, match="n_x >= 33"):
        direct_solve(op, geom, 1.0, 3.0, n_x=17)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_direct_solve_rejects_the_diffusivities_the_solver_rejects(bad):
    # direct_solve(op, geom, 0.0, 1.0) used to return a "solution" and NaN
    # ended in a bare scipy ValueError; both routes now share one gate.
    op = build_dirichlet_laplacian_1d(4, 1.0)
    geom = CylinderGeometry(-0.7, 0.0, 1.3)
    for km, kp in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(InvalidGeometryError, match="diffusivities"):
            direct_solve(op, geom, km, kp)
        with pytest.raises(InvalidGeometryError, match="diffusivities"):
            solve_transmission(op, geom, km, kp)


@pytest.mark.parametrize("levels", [[33, 65], [65, 65, 65], [129, 65, 33], [33, 129, 65]])
def test_convergence_levels_must_be_three_strictly_increasing(levels):
    op = build_dirichlet_laplacian_1d(3, 1.0)
    case = manufactured_forced(op, CylinderGeometry(-0.7, 0.0, 1.3), 1.0, 3.0, 1, [1.0])
    for method in ("representation", "direct"):
        with pytest.raises(ValueError, match="strictly increasing"):
            convergence_study(case, method, levels)
    assert oracle.check_levels((33, 65, np.int64(129))) == [33, 65, 129]

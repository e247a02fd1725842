import numpy as np
import pytest

from bitrans import (
    CylinderGeometry,
    EvaluationError,
    HypothesisViolationError,
    InvalidGeometryError,
    SectionOperator,
    SymmetryError,
    apply_function,
    build_dirichlet_laplacian_1d,
    direct_solve,
    from_matrix,
    from_matrix_file,
    generator_matrix,
    semigroup,
)
from bitrans.section_operator import _fix_eigenvector_signs
from bitrans.symbols import SymbolContext, f_total


def laplacian_closed_form(m, length):
    h = length / (m + 1)
    k = np.arange(1, m + 1)
    return np.sort(-(4.0 / h**2) * np.sin(k * np.pi / (2 * (m + 1))) ** 2)


@pytest.mark.parametrize("m", [1, 3, 50])
def test_laplacian_eigenvalues_match_closed_form(m):
    op = build_dirichlet_laplacian_1d(m, 1.0)
    exact = laplacian_closed_form(m, 1.0)
    assert np.max(np.abs(op.eigenvalues - exact) / np.abs(exact)) < 1e-10


def test_laplacian_m1_single_mode():
    op = build_dirichlet_laplacian_1d(1, 1.0)
    assert op.eigenvalues.shape == (1,)
    assert op.eigenvalues[0] == pytest.approx(-8.0, rel=1e-14)


@pytest.mark.parametrize("m", [1, 3, 50])
def test_laplacian_orthonormal_and_reconstructs(m):
    op = build_dirichlet_laplacian_1d(m, 1.0)
    q = op.eigenvectors
    assert np.linalg.norm(q.T @ q - np.eye(m), 2) < 1e-12
    h = 1.0 / (m + 1)
    dense = (np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1)
             + np.diag(np.ones(m - 1), -1)) / h**2
    assert np.linalg.norm(op.matrix - dense, 2) <= 1e-10 * np.linalg.norm(dense, 2)


@pytest.mark.parametrize("m", [1, 2, 8, 64, 256, 512])
def test_laplacian_closed_form_matches_eigh_tridiagonal(m):
    from scipy.linalg import eigh_tridiagonal

    h = 1.0 / (m + 1)
    diag, off = np.full(m, -2.0 / h**2), np.full(m - 1, 1.0 / h**2)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ref_mu, ref_q = eigh_tridiagonal(diag, off)
    op = build_dirichlet_laplacian_1d(m, 1.0)
    mu, q = op.eigenvalues, op.eigenvectors
    # Ascending order and the sign convention (first entry positive, which
    # is the first significant entry of every Dirichlet sine mode).
    assert np.all(np.diff(mu) > 0)
    assert np.all(q[0] > 0)
    assert np.array_equal(_fix_eigenvector_signs(q), q)
    assert np.max(np.abs(q - _fix_eigenvector_signs(ref_q))) < 1e-9
    assert np.max(np.abs(mu - ref_mu) / np.abs(ref_mu)) < 1e-10
    norm = np.linalg.norm(dense, 2)
    assert np.linalg.norm(dense @ q - q * mu, 2) <= 1e-15 * norm
    assert np.linalg.norm(q.T @ q - np.eye(m), 2) < 1e-14


def _fix_signs_loop(vectors):
    # Column-by-column reference for the vectorized sign convention.
    fixed = vectors.copy()
    for j in range(fixed.shape[1]):
        col = fixed[:, j]
        idx = np.argmax(np.abs(col) > 1e-8 * np.max(np.abs(col)))
        if col[idx] < 0:
            fixed[:, j] = -col
    return fixed


@pytest.mark.parametrize("m", [1, 8, 256, 2048])
def test_vectorized_sign_fix_is_bit_identical_to_the_loop(m):
    # The unsigned closed-form sine table, as build_dirichlet_laplacian_1d forms it.
    k = np.arange(m, 0, -1)
    jk = np.outer(np.arange(1, m + 1), k) % (2 * (m + 1))
    raw = np.sqrt(2.0 / (m + 1)) * np.sin(jk * np.pi / (m + 1))
    assert np.array_equal(_fix_eigenvector_signs(raw), _fix_signs_loop(raw))
    assert np.array_equal(build_dirichlet_laplacian_1d(m, 1.0).eigenvectors, _fix_signs_loop(raw))


def test_vectorized_sign_fix_matches_the_loop_on_a_user_matrix():
    rng = np.random.default_rng(7)
    b = rng.normal(size=(40, 40))
    a = -(b @ b.T) - 40.0 * np.eye(40)
    _, q = np.linalg.eigh(0.5 * (a + a.T))
    assert np.any(q[0] < 0)  # some columns need a flip
    assert np.array_equal(_fix_eigenvector_signs(q), _fix_signs_loop(q))
    assert np.array_equal(from_matrix(a).eigenvectors, _fix_signs_loop(q))


def test_invalid_geometry_rejected():
    with pytest.raises(InvalidGeometryError):
        build_dirichlet_laplacian_1d(0, 1.0)
    with pytest.raises(InvalidGeometryError):
        build_dirichlet_laplacian_1d(3, -1.0)


@pytest.mark.parametrize("call, error", [
    (lambda: build_dirichlet_laplacian_1d(1, 3.5e-215), InvalidGeometryError),
    (lambda: f_total(SymbolContext(0.7, 1.3, 1.0, 2e154), np.array([1.0, 50.0])),
     EvaluationError),
    (lambda: f_total(SymbolContext(0.7, 1.3, np.float64(2e154), 1.0), np.array([1.0])),
     EvaluationError),
    (lambda: direct_solve(build_dirichlet_laplacian_1d(2, 1.0),
                          CylinderGeometry(-1e300, 0.0, 1e300), 1.0, 2.0),
     InvalidGeometryError),
], ids=["laplacian-h2-underflow", "f_total-k2-overflow", "f_total-numpy-k2-overflow",
        "oracle-h2-overflow"])
def test_extreme_scales_raise_typed_errors(call, error):
    # These used to escape as ZeroDivisionError or OverflowError, or, for a
    # numpy-float diffusivity, return inf.
    with pytest.raises(error):
        call()


def test_from_matrix_scalar():
    op = from_matrix(np.array([[-1.0]]))
    assert op.eigenvalues[0] == pytest.approx(-1.0)


def test_from_matrix_positive_eigenvalue_rejected():
    with pytest.raises(HypothesisViolationError):
        from_matrix(np.diag([-1.0, 1.0]))


def test_from_matrix_asymmetric_rejected():
    a = np.array([[-2.0, 0.5], [0.0, -1.0]])
    with pytest.raises(SymmetryError):
        from_matrix(a)


def test_from_matrix_matches_tridiagonal_constructor():
    m = 3
    h = 0.25
    dense = (np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1)
             + np.diag(np.ones(m - 1), -1)) / h**2
    a = from_matrix(dense)
    b = build_dirichlet_laplacian_1d(m, 1.0)
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) < 1e-12 * np.max(-b.eigenvalues)


def test_orthonormality_gate_rejects_perturbed_q_and_accepts_large_laplacian():
    op = build_dirichlet_laplacian_1d(8, 1.0)
    q = op.eigenvectors.copy()
    q[:, 0] *= 1.0 + 5e-12
    assert np.linalg.norm(q.T @ q - np.eye(8), 2) == pytest.approx(1e-11, rel=1e-3)
    with pytest.raises(InvalidGeometryError, match="not orthonormal"):
        SectionOperator(op.eigenvalues, q)
    assert build_dirichlet_laplacian_1d(2048, 1.0).m == 2048


def test_apply_function_identity_reproduces_matrix():
    op = build_dirichlet_laplacian_1d(5, 1.0)
    out = apply_function(op, lambda mu: mu, tag="identity")
    assert np.linalg.norm(out - op.matrix, 2) <= 1e-12 * np.linalg.norm(op.matrix, 2)


def test_apply_function_scalar_square_root():
    op = from_matrix(np.array([[-4.0]]))
    out = apply_function(op, lambda mu: -np.sqrt(-mu))
    assert out[0, 0] == pytest.approx(-2.0, rel=1e-14)


def test_apply_function_exponential_per_mode():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    out = apply_function(op, lambda mu: np.exp(-np.sqrt(-mu)))
    q = op.eigenvectors
    modal = np.diag(q.T @ out @ q)
    assert np.max(np.abs(modal - np.exp(-np.sqrt(-op.eigenvalues)))) < 1e-12


def test_apply_function_nonfinite_rejected_naming_eigenvalue():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    with pytest.raises(EvaluationError, match="-32"):
        apply_function(op, lambda mu: np.where(np.isclose(mu, -32.0), np.inf, mu))


def test_apply_function_outputs_commute():
    op = build_dirichlet_laplacian_1d(8, 1.0)
    rng = np.random.default_rng(3)
    coef_a, coef_b = rng.normal(size=(2, 3))
    f = apply_function(op, lambda mu: coef_a[0] + coef_a[1] * np.exp(0.1 * mu) + coef_a[2] / mu)
    g = apply_function(op, lambda mu: coef_b[0] * np.sqrt(-mu) + coef_b[1] * mu + coef_b[2])
    comm = f @ g - g @ f
    scale = np.linalg.norm(f, 2) * np.linalg.norm(g, 2)
    assert np.linalg.norm(comm, 2) <= 1e-11 * scale


@pytest.mark.parametrize("m", [1, 3, 50])
def test_generator_squares_to_minus_a(m):
    op = build_dirichlet_laplacian_1d(m, 1.0)
    assert np.all(op.generator_eigenvalues < 0)
    mmat = generator_matrix(op)
    gap = np.linalg.norm(mmat @ mmat + op.matrix, 2)
    assert gap <= 1e-10 * np.linalg.norm(op.matrix, 2)


def test_generator_scalar_values():
    for mu, g in ((-1.0, -1.0), (-4.0, -2.0)):
        op = from_matrix(np.array([[mu]]))
        assert op.generator_eigenvalues[0] == pytest.approx(g)
        assert generator_matrix(op)[0, 0] == pytest.approx(g)


def test_generator_laplacian3_values():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    exact = -np.sqrt(-laplacian_closed_form(3, 1.0))
    assert np.max(np.abs(np.sort(op.generator_eigenvalues) - np.sort(exact))) < 1e-10
    dense = np.linalg.eigvalsh(generator_matrix(op))
    assert np.max(np.abs(dense - np.sort(exact))) < 1e-10


def test_semigroup_identity_at_zero():
    op = build_dirichlet_laplacian_1d(4, 1.0)
    assert np.array_equal(semigroup(op, 0.0), np.eye(4))


def test_semigroup_scalar_exponential():
    op = from_matrix(np.array([[-1.0]]))
    assert semigroup(op, 1.0)[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-14)


def test_semigroup_law():
    op = build_dirichlet_laplacian_1d(3, 1.0)
    lhs = semigroup(op, 0.3) @ semigroup(op, 0.7)
    rhs = semigroup(op, 1.0)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-12


@pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
def test_semigroup_contractive(t):
    op = build_dirichlet_laplacian_1d(6, 1.0)
    assert np.linalg.norm(semigroup(op, t), 2) <= 1.0


def test_semigroup_monotone_decay():
    op = build_dirichlet_laplacian_1d(6, 1.0)
    norms = [np.linalg.norm(semigroup(op, t), 2) for t in (0.0, 0.2, 0.5, 1.0, 3.0)]
    assert all(b <= a for a, b in zip(norms, norms[1:]))


def test_semigroup_negative_time_rejected():
    op = build_dirichlet_laplacian_1d(2, 1.0)
    with pytest.raises(ValueError):
        semigroup(op, -0.1)


def test_matrix_file_roundtrip(tmp_path):
    a = np.diag([-3.0, -1.5])
    path = tmp_path / "op.txt"
    path.write_text("2\n-3.0 0.0\n0.0 -1.5\n")
    op = from_matrix_file(path)
    assert np.allclose(np.sort(op.eigenvalues), np.sort(np.diag(a)))


def test_matrix_file_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n-3.0 0.0\n")
    with pytest.raises(InvalidGeometryError):
        from_matrix_file(path)

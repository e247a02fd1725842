"""Finite-dimensional section operator, the one spectral object of the solver.

The section operator A is a symmetric negative-definite m x m matrix; it
stands in for the cross-section diffusion operator of the transmission
problem. Every operator downstream (the square-root generator
M = -sqrt(-A), the semigroups e^{tM}, the interface blocks) is a function
of A, hence diagonal in its eigenbasis. ``SectionOperator`` holds that
eigenbasis together with the eigenvalues of A and of M, and its
``to_modal``/``from_modal`` are the only basis changes the solver makes.
No module forms the dense matrix of one of these functions: each acts by
scaling eigenbasis coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import is_integer
from .errors import (
    HypothesisViolationError,
    InvalidGeometryError,
    SymmetryError,
)

# Construction-time tolerances; every downstream budget assumes these floors.
ORTHONORMALITY_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10
SYMMETRY_TOL = 1e-12
NEGATIVITY_TOL = 1e-12


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so the first significant component is positive.

    Makes the decomposition reproducible across LAPACK builds; modal CSV
    output depends on this convention.
    """
    significant = np.abs(vectors) > 1e-8 * np.max(np.abs(vectors), axis=0)
    lead = vectors[np.argmax(significant, axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(lead < 0, -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class SectionOperator:
    """Symmetric negative-definite section operator, stored spectrally.

    Attributes
    ----------
    eigenvalues : (m,) ndarray
        Strictly negative, nondecreasing.
    eigenvectors : (m, m) ndarray
        Orthonormal columns, sign-fixed (first significant entry positive).
    label : str
        Provenance note ("dirichlet-laplacian-1d(...)", "user matrix", ...).
    generator_eigenvalues : (m,) ndarray
        Eigenvalues g_j = -sqrt(-mu_j) of the generator M = -sqrt(-A) on the
        same eigenbasis, so M is symmetric negative definite and M^2 = -A.

    The three arrays are read-only copies, so the caller's own arrays stay
    writable and an edit to them changes nothing here: an edit in place
    would leave ``generator_eigenvalues`` stale and poison every solve
    that reuses them. ``_solver`` holds the last
    ``transmission.TransmissionSolver`` built on this operator, so it lives
    exactly as long as the operator. Two operators compare equal when their
    eigenvalues and eigenvectors are equal, whatever their labels; an
    operator is not hashable.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    label: str = ""
    generator_eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    _solver: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = np.array(self.eigenvalues, dtype=float)
        q = np.array(self.eigenvectors, dtype=float)
        if mu.ndim != 1 or q.shape != (mu.size, mu.size):
            raise InvalidGeometryError(
                f"inconsistent spectral data: {mu.shape} eigenvalues, {q.shape} eigenvectors"
            )
        if np.any(np.diff(mu) < 0):
            raise InvalidGeometryError("eigenvalues must be nondecreasing")
        scale = np.max(np.abs(mu))
        if mu.size == 0 or not np.all(np.isfinite(mu)) or scale == 0.0:
            raise InvalidGeometryError("empty or non-finite spectrum")
        if np.any(mu > -NEGATIVITY_TOL * scale):
            bad = float(mu[np.argmax(mu)])
            raise HypothesisViolationError(
                f"eigenvalue {bad:.6g} is not strictly negative; the "
                "negative-definiteness gate (surrogates H2: 0 in the resolvent "
                "set, H4: sectorial of angle 0) rejects this section operator"
            )
        # The Frobenius norm bounds the 2-norm from above and needs no SVD.
        ortho = np.linalg.norm(q.T @ q - np.eye(mu.size))
        if ortho > ORTHONORMALITY_TOL:
            raise InvalidGeometryError(
                f"eigenvector matrix not orthonormal: ||Q^T Q - I||_F = {ortho:.3e}"
            )
        g = -np.sqrt(-mu)
        for name, arr in (("eigenvalues", mu), ("eigenvectors", q), ("generator_eigenvalues", g)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, SectionOperator):
            return NotImplemented
        return (np.array_equal(self.eigenvalues, other.eigenvalues)
                and np.array_equal(self.eigenvectors, other.eigenvectors))

    @property
    def m(self) -> int:
        return self.eigenvalues.size

    @property
    def matrix(self) -> np.ndarray:
        """Reconstruct A = Q diag(mu) Q^T."""
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.T

    def to_modal(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates of a section vector (or stack) in the eigenbasis."""
        return self.eigenvectors.T @ vec

    def from_modal(self, vec: np.ndarray) -> np.ndarray:
        """Physical-basis vector from eigenbasis coordinates."""
        return self.eigenvectors @ vec

    def from_modes(self, modes: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Physical-basis vector from the coordinates ``vec`` of the eigenvectors ``modes``.

        ``from_modal`` of coordinates that vanish outside ``modes``, at the
        cost of len(modes) columns of the basis instead of m. ``np.dot``:
        with one mode, ``@`` takes 2.5 to 5 times as long for the same bits.
        """
        return np.dot(self.eigenvectors[:, modes], vec)


def build_dirichlet_laplacian_1d(m: int, length: float) -> SectionOperator:
    """Second-order central-difference Dirichlet Laplacian on (0, length).

    Parameters
    ----------
    m : int
        Number of interior grid points (>= 1).
    length : float
        Interval length (> 0); grid spacing is h = length / (m + 1).

    Returns
    -------
    SectionOperator
        Spectral decomposition of the tridiagonal (1, -2, 1)/h^2 matrix,
        in closed form: eigenvalues -(4/h^2) sin^2(k pi / (2(m+1))) and
        eigenvectors q_jk = sqrt(2/(m+1)) sin(j k pi / (m+1)), taken for
        k = m..1 so the eigenvalues ascend. The product j k is reduced
        modulo 2(m+1) before it scales pi, which keeps the sine argument
        in [0, 2 pi) and the eigenvectors accurate to rounding at large m.
        The first row, sqrt(2/(m+1)) sin(k pi / (m+1)), is positive, so
        the columns already carry the sign convention of ``from_matrix``.
    """
    if not is_integer(m) or m < 1:
        raise InvalidGeometryError(f"interior point count must be a positive integer, got {m}")
    if not np.isfinite(length) or length <= 0:
        raise InvalidGeometryError(f"interval length must be positive, got {length}")
    h = length / (m + 1)
    try:
        scale = 4.0 / h**2
    except (OverflowError, ZeroDivisionError):
        scale = 0.0
    if not 0.0 < scale < np.inf:
        raise InvalidGeometryError(
            f"grid spacing h = {h:.3e} leaves 4/h^2 outside the float range"
        )
    k = np.arange(m, 0, -1)
    mu = -scale * np.sin(k * np.pi / (2 * (m + 1))) ** 2
    jk = np.outer(np.arange(1, m + 1), k) % (2 * (m + 1))
    q = np.sqrt(2.0 / (m + 1)) * np.sin(jk * np.pi / (m + 1))
    return SectionOperator(mu, q, label=f"dirichlet-laplacian-1d(m={m}, L={length})")


def from_matrix(a: np.ndarray, label: str = "user matrix") -> SectionOperator:
    """Validate and spectrally decompose a dense symmetric section matrix.

    Raises
    ------
    SymmetryError
        If ``a`` is not symmetric within 1e-12 relative.
    HypothesisViolationError
        If any eigenvalue fails the strict-negativity gate.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvalidGeometryError(f"section matrix must be square and nonempty, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidGeometryError("section matrix has non-finite entries")
    scale = np.linalg.norm(a, 2)
    asym = np.linalg.norm(a - a.T, 2)
    if asym > SYMMETRY_TOL * max(scale, 1e-300):
        raise SymmetryError(
            f"section matrix asymmetric: ||A - A^T|| = {asym:.3e} > {SYMMETRY_TOL:g} * ||A||"
        )
    mu, q = np.linalg.eigh(0.5 * (a + a.T))
    q = _fix_eigenvector_signs(q)
    op = SectionOperator(mu, q, label=label)
    recon = np.linalg.norm(op.matrix - a, 2)
    if recon > RECONSTRUCTION_TOL * scale:
        raise InvalidGeometryError(
            f"eigendecomposition reconstruction error {recon:.3e} exceeds "
            f"{RECONSTRUCTION_TOL:g} * ||A||; refusing the decomposition"
        )
    return op


def read_matrix_file(path) -> np.ndarray:
    """Read the plain-text dense matrix format: first line m, then m rows.

    Rows hold m whitespace-separated decimals each.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise InvalidGeometryError(f"matrix file {path!r} is empty")
    try:
        m = int(tokens[0])
        values = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise InvalidGeometryError(f"matrix file {path!r}: {exc}") from exc
    if m < 1 or len(values) != m * m:
        raise InvalidGeometryError(
            f"matrix file {path!r}: expected {m}x{m} entries, got {len(values)}"
        )
    return np.array(values).reshape(m, m)


def from_matrix_file(path, label: str | None = None) -> SectionOperator:
    """Load and validate a section operator from the plain-text format."""
    return from_matrix(read_matrix_file(path), label=label or f"matrix-file({path})")

"""Dense reference build of the interface operators, for verification only.

The solve path works mode by mode: every interface block is a function
of the generator M, hence diagonal in its eigenbasis, and the
transmission module evaluates the blocks through the scalar symbols.
This module builds the same blocks the long way, as m x m matrices from
semigroup matrices and LU factorizations, without the scalar symbols:

* the dense calculus: a spectral function Q diag(g(mu)) Q^T of A
  (``apply_function``), the generator M (``generator_matrix``) and the
  semigroup e^{tM} (``semigroup``),
* E, U, V (with LU factors) per interval, rejected as singular by their
  LU pivots and exact per-mode condition numbers,
* the six interface blocks P1..P3 on each side,
* the assembled 2m x 2m interface matrix Lambda and its LU solve,
* the determinant operator, the pairwise block commutator, and the
  spectral-mapping gap between the assembled blocks and their symbols.

It costs O(m^3) and runs only on the ``both`` route, where it is the
independent reference for the route gap, the dense determinant gap and
the spectral-mapping check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._scipy import lu_factor, lu_solve
from .errors import AnomalyError, EvaluationError
from .problem import CylinderGeometry
from .section_operator import SectionOperator
from .symbols import f_components, u_delta, v_delta


def apply_function(operator: SectionOperator, g, tag: str = "") -> np.ndarray:
    """Evaluate a scalar function of the section operator as a dense matrix.

    Computes Q diag(g(mu)) Q^T, symmetrized; ``g`` maps the eigenvalue
    array to an array of the same shape.

    Raises
    ------
    EvaluationError
        If g is non-finite at some eigenvalue, or returns values with a
        non-negligible imaginary part.
    """
    mu = operator.eigenvalues
    vals = np.broadcast_to(g(mu), mu.shape)
    if np.iscomplexobj(vals):
        scale = np.max(np.abs(vals)) if vals.size else 0.0
        if np.max(np.abs(vals.imag)) > 1e-13 * max(scale, 1.0):
            raise EvaluationError(f"spectral function '{tag}' is not real on the spectrum")
        vals = vals.real
    vals = vals.astype(float)
    if not np.all(np.isfinite(vals)):
        j = int(np.argmax(~np.isfinite(vals)))
        raise EvaluationError(
            f"spectral function '{tag}' not finite at eigenvalue mu_{j + 1} = {mu[j]:.6g}"
        )
    q = operator.eigenvectors
    mat = (q * vals) @ q.T
    return 0.5 * (mat + mat.T)


def generator_matrix(operator: SectionOperator) -> np.ndarray:
    """Dense generator M = Q diag(g) Q^T, with g = -sqrt(-mu); M^2 = -A."""
    q = operator.eigenvectors
    return (q * operator.generator_eigenvalues) @ q.T


def semigroup(operator: SectionOperator, t: float) -> np.ndarray:
    """Semigroup matrix e^{tM} for t >= 0.

    Symmetric positive definite with 2-norm <= 1 (all generator
    eigenvalues are negative); t = 0 returns the exact identity.
    """
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    if t == 0:
        return np.eye(operator.m)
    q = operator.eigenvectors
    mat = (q * np.exp(t * operator.generator_eigenvalues)) @ q.T
    return 0.5 * (mat + mat.T)


def _finite(block: np.ndarray, tag: str) -> np.ndarray:
    """The assembled block, rejected with an EvaluationError if not finite."""
    if not np.all(np.isfinite(block)):
        raise EvaluationError(f"operator matrix '{tag}' has non-finite entries")
    return block


@dataclass(frozen=True)
class SideOperators:
    """Dense operators of one interval of length delta.

    E = e^{delta M}, E2 = e^{2 delta M}, U = I - E2 + 2 delta M E and
    V = I - E2 - 2 delta M E, with cached LU factorizations of U and V.
    Both are provably invertible for the admissible operator class; a
    numerically singular factorization is reported as an anomaly.
    """

    operator: SectionOperator
    delta: float
    E: np.ndarray
    E2: np.ndarray
    U: np.ndarray
    V: np.ndarray
    lu_u: tuple
    lu_v: tuple

    @property
    def m(self) -> int:
        return self.operator.m

    def u_inv(self, rhs: np.ndarray) -> np.ndarray:
        return lu_solve(self.lu_u, rhs)

    def v_inv(self, rhs: np.ndarray) -> np.ndarray:
        return lu_solve(self.lu_v, rhs)


def _invertible(lu: tuple, symbol: np.ndarray, tag: str) -> tuple:
    """LU factors of U or V: finite, no zero pivot, and a finite exact 2-norm
    condition number max|s_j| / min|s_j| of its symbol (U = Q diag(u_j) Q^T)."""
    mags = np.abs(symbol)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.max(mags) / np.min(mags)
    factors = lu[0]
    if not (np.isfinite(cond) and np.all(np.isfinite(factors)) and np.all(np.diagonal(factors))):
        raise AnomalyError(f"{tag} numerically singular (condition number {cond:.3g}; "
                           "contradicts its bounded invertibility)")
    return lu


def build_side_operators(operator: SectionOperator, delta: float,
                         side_tag: str = "") -> SideOperators:
    """Assemble E, U, V (with inverses) for one interval from semigroups."""
    e = semigroup(operator, delta)
    e2 = semigroup(operator, 2.0 * delta)
    me = generator_matrix(operator) @ e
    eye = np.eye(operator.m)
    u = _finite(eye - e2 + 2.0 * delta * me, f"U_{side_tag}")
    v = _finite(eye - e2 - 2.0 * delta * me, f"V_{side_tag}")
    z = -operator.eigenvalues
    lu_u = _invertible(lu_factor(u), u_delta(delta, z), f"U_{side_tag}")
    lu_v = _invertible(lu_factor(v), v_delta(delta, z), f"V_{side_tag}")
    return SideOperators(operator=operator, delta=delta, E=e, E2=e2, U=u, V=v,
                         lu_u=lu_u, lu_v=lu_v)


def assemble_UV(operator: SectionOperator, geometry: CylinderGeometry):
    """Solvability operators (with inverses) for both intervals."""
    minus = build_side_operators(operator, geometry.c, side_tag="minus")
    plus = build_side_operators(operator, geometry.d, side_tag="plus")
    return minus, plus


def assemble_P(k_minus: float, k_plus: float, minus: SideOperators, plus: SideOperators):
    """The six interface blocks P1, P2, P3 on each side."""
    eye = np.eye(minus.m)

    def triple(ops: SideOperators, k: float, side: str):
        plus_sq = (eye + ops.E) @ (eye + ops.E)
        minus_sq = (eye - ops.E) @ (eye - ops.E)
        p1 = k * (ops.u_inv(plus_sq) + ops.v_inv(minus_sq))
        p2 = k * (ops.u_inv(eye - ops.E2) + ops.v_inv(eye - ops.E2))
        p3 = k * (ops.u_inv(minus_sq) + ops.v_inv(plus_sq))
        return (_finite(p1, f"P1_{side}"), _finite(p2, f"P2_{side}"),
                _finite(p3, f"P3_{side}"))

    return triple(minus, k_minus, "minus") + triple(plus, k_plus, "plus")


@dataclass(frozen=True)
class DenseOperators:
    """Assembled interface blocks, the 2m x 2m system, and dense diagnostics.

    ``det_modal_assembled`` holds the diagonal of Q^T det_operator() Q,
    the per-mode determinant read off the assembled matrices; the
    solve path's ``det_modal_symbols`` must match it.
    """

    operator: SectionOperator
    geometry: CylinderGeometry
    k_minus: float
    k_plus: float
    minus: SideOperators
    plus: SideOperators
    P1_minus: np.ndarray
    P2_minus: np.ndarray
    P3_minus: np.ndarray
    P1_plus: np.ndarray
    P2_plus: np.ndarray
    P3_plus: np.ndarray
    Lambda: np.ndarray
    det_modal_assembled: np.ndarray = field(init=False)

    def __post_init__(self):
        q = self.operator.eigenvectors
        object.__setattr__(self, "det_modal_assembled",
                           np.einsum("ij,ij->j", q, self.det_operator() @ q))

    @property
    def m(self) -> int:
        return self.operator.m

    @property
    def p1_sum(self) -> np.ndarray:
        return self.P1_plus + self.P1_minus

    @property
    def p2_diff(self) -> np.ndarray:
        return self.P2_plus - self.P2_minus

    @property
    def p3_sum(self) -> np.ndarray:
        return self.P3_plus + self.P3_minus

    def det_operator(self) -> np.ndarray:
        """Assembled determinant operator -M (P1s P3s - P2d^2)."""
        mmat = generator_matrix(self.operator)
        return -mmat @ (self.p1_sum @ self.p3_sum - self.p2_diff @ self.p2_diff)

    def max_commutator(self) -> float:
        """Largest relative pairwise commutator among the system blocks."""
        blocks = [generator_matrix(self.operator), self.p1_sum, self.p2_diff, self.p3_sum]
        worst = 0.0
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                x, y = blocks[i], blocks[j]
                denom = max(np.linalg.norm(x, 2) * np.linalg.norm(y, 2), 1e-300)
                worst = max(worst, np.linalg.norm(x @ y - y @ x, 2) / denom)
        return worst


def assemble_dense_operators(
    operator: SectionOperator,
    geometry: CylinderGeometry,
    k_minus: float,
    k_plus: float,
) -> DenseOperators:
    """Build every interface block densely, plus the block matrix and diagnostics."""
    minus, plus = assemble_UV(operator, geometry)
    p1m, p2m, p3m, p1p, p2p, p3p = assemble_P(k_minus, k_plus, minus, plus)
    mmat = generator_matrix(operator)
    p1s = p1p + p1m
    p2d = p2p - p2m
    p3s = p3p + p3m
    lam = np.block([[mmat @ p1s, -p2d], [mmat @ p2d, -p3s]])
    return DenseOperators(
        operator=operator, geometry=geometry, k_minus=k_minus, k_plus=k_plus,
        minus=minus, plus=plus,
        P1_minus=p1m, P2_minus=p2m, P3_minus=p3m,
        P1_plus=p1p, P2_plus=p2p, P3_plus=p3p, Lambda=lam,
    )


def solve_block(reference: DenseOperators, s1: np.ndarray, s2: np.ndarray):
    """LU solve of Lambda [psi1; psi2] = [s1; s2] in the physical basis.

    Returns (psi1, psi2, residual) with the scaled residual
    ||Lambda psi - s|| / (1 + ||s||).
    """
    rhs = np.concatenate([s1, s2])
    try:
        sol = np.linalg.solve(reference.Lambda, rhs)
    except np.linalg.LinAlgError as exc:
        raise AnomalyError(
            "singular interface block matrix (contradicts determinant "
            f"invertibility): {exc}"
        ) from exc
    residual = float(np.linalg.norm(reference.Lambda @ sol - rhs) / (1.0 + np.linalg.norm(rhs)))
    return sol[:reference.m], sol[reference.m:], residual


def spectral_mapping_gap(reference: DenseOperators) -> float:
    """Worst relative gap between assembled blocks and their scalar symbols."""
    op = reference.operator
    c, d = reference.geometry.c, reference.geometry.d
    pairs = [
        (reference.minus.U, lambda mu: u_delta(c, -mu)),
        (reference.plus.U, lambda mu: u_delta(d, -mu)),
        (reference.minus.V, lambda mu: v_delta(c, -mu)),
        (reference.plus.V, lambda mu: v_delta(d, -mu)),
    ]
    for idx in range(3):
        pairs.append((getattr(reference, f"P{idx + 1}_minus") / reference.k_minus,
                      lambda mu, i=idx: f_components(c, -mu)[i]))
        pairs.append((getattr(reference, f"P{idx + 1}_plus") / reference.k_plus,
                      lambda mu, i=idx: f_components(d, -mu)[i]))
    worst = 0.0
    for assembled, symbol in pairs:
        target = apply_function(op, symbol)
        scale = max(np.linalg.norm(target, 2), 1e-300)
        worst = max(worst, float(np.linalg.norm(assembled - target, 2) / scale))
    return worst

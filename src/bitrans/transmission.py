"""Interface system assembly, two-route inversion, and orchestration.

The interface unknowns (psi1, psi2) = (u(gamma), u'(gamma)) solve the
2x2 operator system

    (P1+ + P1-) M psi1 - (P2+ - P2-) psi2 = S1
    (P2+ - P2-) M psi1 - (P3+ + P3-) psi2 = S2,

whose blocks are all functions of the same generator M. In the
eigenbasis of M every block is the scalar symbol of the ``symbols``
module, so the default solve is one modal pipeline: the boundary data
enters the eigenbasis once, sources, interface pair and representation
coefficients are O(m) per-mode arithmetic, and the fields map back once.
The system matrix splits into 2x2 blocks per mode, inverted by the
cofactor formula with determinant -m_j * f(-mu_j).

The ``block`` route instead solves the assembled 2m x 2m matrix by LU
(built by the ``verification`` module without the symbols); ``both``
runs the two and records their gap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .errors import AnomalyError, DimensionMismatchError
from .problem import (
    SIDE_MINUS,
    SIDE_PLUS,
    BoundaryData,
    CylinderGeometry,
    ModalForcing,
    TransmissionProblem,
)
from .section_operator import GeneratorM, SectionOperator, square_root_generator
from .subproblem import (
    SideSymbols,
    SubproblemSolution,
    alphas_minus,
    alphas_plus,
    phi_tilde_minus,
    phi_tilde_plus,
    side_symbols,
    solve_particular,
)
from .symbols import SymbolContext, f_total
from .verification import DenseOperators, assemble_dense_operators, solve_block

BLOCK_RESIDUAL_TOL = 1e-10
DET_CROSSCHECK_TOL = 1e-10
ROUTE_BLOCK = "block"
ROUTE_CALCULUS = "calculus"
ROUTE_BOTH = "both"


def _cond_lambda(g: np.ndarray, p1s: np.ndarray, p2d: np.ndarray, p3s: np.ndarray,
                 det: np.ndarray) -> float:
    """max_j sigma_max(Lambda_j) / min_j sigma_min(Lambda_j) over the per-mode blocks.

    Q (+) Q is orthogonal, so these are the extreme singular values of the
    assembled 2m x 2m matrix. For a 2x2 block with T = ||Lambda_j||_F^2 and
    D = |det Lambda_j|: sigma_max^2 = (T + sqrt((T - 2D)(T + 2D))) / 2 and
    sigma_min = D / sigma_max.
    """
    frob = (g * p1s) ** 2 + p2d**2 + (g * p2d) ** 2 + p3s**2
    d = np.abs(det)
    s_max = np.sqrt(0.5 * (frob + np.sqrt(np.maximum((frob - 2.0 * d) * (frob + 2.0 * d), 0.0))))
    return float(np.max(s_max) / np.min(d / s_max))


@dataclass(frozen=True)
class TransmissionOperators:
    """Per-mode symbols of every interface block.

    ``minus``/``plus`` hold E, U, V and f_{delta,1..3} of each interval,
    so the blocks are P_i = k f_{delta,i} per side. The system matrix is
    Lambda_j = [[g_j p1s_j, -p2d_j], [g_j p2d_j, -p3s_j]] per mode, with
    g_j the generator eigenvalues and p1s = P1+ + P1-, p2d = P2+ - P2-,
    p3s = P3+ + P3-. ``det_modal_symbols`` holds det Lambda_j =
    -g_j f(-mu_j) through the scalar determinant symbol,
    ``det_modal_blocks`` the same numbers as -g_j (p1s p3s - p2d^2) from
    the block symbols; their agreement is the determinant-factorization
    check. ``conditions`` are exact 2-norm condition numbers:
    max u / min u, max v / min v, and that of Lambda (``_cond_lambda``).
    """

    generator: GeneratorM
    geometry: CylinderGeometry
    k_minus: float
    k_plus: float
    minus: SideSymbols
    plus: SideSymbols
    p1_sum: np.ndarray
    p2_diff: np.ndarray
    p3_sum: np.ndarray
    f_values: np.ndarray
    det_modal_symbols: np.ndarray
    det_modal_blocks: np.ndarray
    conditions: dict

    @property
    def m(self) -> int:
        return self.generator.m

    @property
    def det_gap(self) -> float:
        """Scaled gap between the block-symbol and determinant-symbol determinants."""
        det = self.det_modal_symbols
        return float(np.max(np.abs(self.det_modal_blocks - det)) / (1.0 + np.max(np.abs(det))))


def assemble_transmission_operators(
    generator: GeneratorM,
    geometry: CylinderGeometry,
    k_minus: float,
    k_plus: float,
) -> TransmissionOperators:
    """Evaluate every interface block symbol on the spectrum, O(m)."""
    minus = side_symbols(generator, geometry.c)
    plus = side_symbols(generator, geometry.d)
    ctx = SymbolContext(geometry.c, geometry.d, k_minus, k_plus)
    f_vals = np.asarray(f_total(ctx, -generator.operator.eigenvalues), dtype=float)
    g = generator.eigenvalues
    p1s = k_plus * plus.f[0] + k_minus * minus.f[0]
    p2d = k_plus * plus.f[1] - k_minus * minus.f[1]
    p3s = k_plus * plus.f[2] + k_minus * minus.f[2]
    det_sym = -g * f_vals
    conditions = {
        "Uminus": minus.cond_u,
        "Uplus": plus.cond_u,
        "Vminus": minus.cond_v,
        "Vplus": plus.cond_v,
        "Lambda": _cond_lambda(g, p1s, p2d, p3s, det_sym),
    }
    return TransmissionOperators(
        generator=generator, geometry=geometry, k_minus=k_minus, k_plus=k_plus,
        minus=minus, plus=plus, p1_sum=p1s, p2_diff=p2d, p3_sum=p3s,
        f_values=f_vals, det_modal_symbols=det_sym,
        det_modal_blocks=-g * (p1s * p3s - p2d * p2d), conditions=conditions,
    )


@dataclass(frozen=True)
class InterfaceSources:
    """Right-hand sides S1, S2 of the interface system and the flux source.

    All three are eigenbasis coordinates.
    """

    s1: np.ndarray
    s2: np.ndarray
    s_check: np.ndarray

    def __post_init__(self):
        for name in ("s1", "s2", "s_check"):
            vec = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if vec.ndim != 1 or not np.all(np.isfinite(vec)):
                raise DimensionMismatchError(f"{name} must be a finite vector")
            object.__setattr__(self, name, vec)
        if not (self.s1.size == self.s2.size == self.s_check.size):
            raise DimensionMismatchError("source vectors must share one dimension")

    @property
    def m(self) -> int:
        return self.s1.size


def assemble_sources(
    operators: TransmissionOperators,
    phi_tilde_m: tuple,
    phi_tilde_p: tuple,
    fprime_gamma_minus: np.ndarray,
    f3_gamma_minus: np.ndarray,
    fprime_gamma_plus: np.ndarray,
    f3_gamma_plus: np.ndarray,
) -> InterfaceSources:
    """Assemble S1, S2 and the particular-flux source S-check, per mode.

    S-check = -k+ F+'''(gamma) + k+ M^2 F+'(gamma)
              + k- F-'''(gamma) - k- M^2 F-'(gamma);
    S1 carries the term -M^{-2} S-check (the opposite sign breaks the
    second transmission condition, and the tests demonstrate that).
    Every input is in eigenbasis coordinates.
    """
    kp, km = operators.k_plus, operators.k_minus
    ed, ec = operators.plus.e, operators.minus.e
    _, pt2m, _, pt4m = phi_tilde_m
    _, pt2p, _, pt4p = phi_tilde_p
    msq = operators.generator.eigenvalues**2
    s_check = (-kp * f3_gamma_plus + kp * msq * fprime_gamma_plus
               + km * f3_gamma_minus - km * msq * fprime_gamma_minus)
    s1 = (2.0 * kp * ((pt2p + pt4p) + ed * (pt2p - pt4p))
          - 2.0 * km * ((pt2m - pt4m) + ec * (pt2m + pt4m))
          - s_check / msq)
    s2 = (2.0 * kp * ((pt2p + pt4p) - ed * (pt2p - pt4p))
          + 2.0 * km * ((pt2m - pt4m) - ec * (pt2m + pt4m)))
    return InterfaceSources(s1=s1, s2=s2, s_check=s_check)


@dataclass(frozen=True)
class InterfaceData:
    """Solved interface trace pair with its solve route and residual.

    ``psi1_hat``, ``psi2_hat`` are eigenbasis coordinates (what the
    coefficient recovery consumes); ``psi1``, ``psi2`` the same pair in
    the physical basis.
    """

    psi1_hat: np.ndarray
    psi2_hat: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    route: str
    residual: float

    def __post_init__(self):
        if self.residual > BLOCK_RESIDUAL_TOL:
            raise AnomalyError(
                f"interface solve residual {self.residual:.3e} exceeds "
                f"{BLOCK_RESIDUAL_TOL:g} (route {self.route!r})"
            )


def solve_interface_block(reference: DenseOperators,
                          sources: InterfaceSources) -> InterfaceData:
    """Direct LU solve of the assembled 2m x 2m block system (verification route)."""
    if sources.m != reference.m:
        raise DimensionMismatchError("source dimension does not match operators")
    q = reference.generator.operator.eigenvectors
    psi1, psi2, residual = solve_block(reference, q @ sources.s1, q @ sources.s2)
    return InterfaceData(q.T @ psi1, q.T @ psi2, psi1, psi2, ROUTE_BLOCK, residual)


def solve_interface_calculus(operators: TransmissionOperators,
                             sources: InterfaceSources) -> InterfaceData:
    """Per-mode cofactor inversion through the scalar determinant symbol.

    Every block is diagonal in the eigenbasis, so the 2x2 cofactor
    formula applies mode by mode with det = -m_j * f(-mu_j):

        psi1_j = (-p3s * s1_j + p2d * s2_j) / det_j
        psi2_j = m_j * (-p2d * s1_j + p1s * s2_j) / det_j.

    The residual is that of the per-mode blocks; it equals the residual
    of the assembled system because Q (+) Q is orthogonal.
    """
    if sources.m != operators.m:
        raise DimensionMismatchError("source dimension does not match operators")
    fvals = operators.f_values
    if np.any(fvals <= 0.0):
        j = int(np.argmax(fvals <= 0.0))
        raise AnomalyError(
            f"determinant symbol f({-operators.generator.operator.eigenvalues[j]:.6g}) = "
            f"{fvals[j]:.6g} <= 0 (contradicts its positivity on the positive real axis)"
        )
    if operators.det_gap > DET_CROSSCHECK_TOL:
        raise AnomalyError(
            f"determinant factorization cross-check failed: gap {operators.det_gap:.3e}"
        )
    g = operators.generator.eigenvalues
    p1s, p2d, p3s = operators.p1_sum, operators.p2_diff, operators.p3_sum
    det = operators.det_modal_symbols
    s1, s2 = sources.s1, sources.s2
    psi1_hat = (-p3s * s1 + p2d * s2) / det
    psi2_hat = g * (-p2d * s1 + p1s * s2) / det
    res1 = g * p1s * psi1_hat - p2d * psi2_hat - s1
    res2 = g * p2d * psi1_hat - p3s * psi2_hat - s2
    residual = float(np.sqrt(np.sum(res1**2) + np.sum(res2**2))
                     / (1.0 + np.sqrt(np.sum(s1**2) + np.sum(s2**2))))
    q = operators.generator.operator.eigenvectors
    return InterfaceData(psi1_hat, psi2_hat, q @ psi1_hat, q @ psi2_hat,
                         ROUTE_CALCULUS, residual)


def leading_order_interface(operators: TransmissionOperators,
                            sources: InterfaceSources):
    """Leading-order interface data with the smoothing remainders dropped.

    psi1 ~ (k+ + k-) / (8 k+ k-) M^{-1} S1 - (k+ - k-) / (8 k+ k-) M^{-1} S2,
    psi2 ~ (k+ - k-) / (8 k+ k-) S1 - (k+ + k-) / (8 k+ k-) S2.

    The dropped remainders are smoothing operators whose contribution
    decays exponentially with the interval lengths. Returns the pair in
    the physical basis.
    """
    gen = operators.generator
    kp, km = operators.k_plus, operators.k_minus
    cp = (kp + km) / (8.0 * kp * km)
    cm = (kp - km) / (8.0 * kp * km)
    q = gen.operator.eigenvectors
    s1, s2 = sources.s1, sources.s2
    psi1 = q @ ((cp * s1 - cm * s2) / gen.eigenvalues)
    psi2 = q @ (cm * s1 - cp * s2)
    return psi1, psi2


@dataclass(frozen=True)
class SolveOptions:
    """Solver options: interface route, modal BVP grid, probe density."""

    route: str = ROUTE_CALCULUS
    n_x: int = 129
    probe_points: int = 33

    def __post_init__(self):
        if self.route not in (ROUTE_BLOCK, ROUTE_CALCULUS, ROUTE_BOTH):
            raise ValueError(f"unknown route {self.route!r}")
        if self.probe_points < 5:
            raise ValueError("need at least 5 probe points")


@dataclass(frozen=True)
class ResidualReport:
    """Scaled sup-norm residuals of the assembled transmission solution.

    Homogeneous-path entries (boundary, interface, coefficient
    identities) are exact in x and budgeted at 1e-9; the equation
    residual goes through one numerical differentiation of the
    third-derivative field plus the interpolated particular solution and
    is budgeted from the probe spacing and the observed BVP error.
    """

    eq_minus: float
    eq_plus: float
    bc_1: float
    bc_2: float
    bc_3: float
    bc_4: float
    tc1_u: float
    tc1_du: float
    tc2_flux2: float
    tc2_flux3: float
    id2_minus: float
    id2_plus: float
    id3_minus: float
    id3_plus: float
    route_gap: float
    det_gap: float
    cond_Uminus: float
    cond_Uplus: float
    cond_Vminus: float
    cond_Vplus: float
    cond_Lambda: float
    budgets: dict = field(default_factory=dict)
    passed: bool = True

    def to_dict(self) -> dict:
        out = {f.name: float(getattr(self, f.name)) for f in fields(self)
               if f.name not in ("budgets", "passed")}
        out["budgets"] = {key: float(val) for key, val in self.budgets.items()}
        out["passed"] = bool(self.passed)
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


@dataclass(frozen=True)
class TransmissionSolution:
    """Full transmission solution: one-sided solutions plus diagnostics.

    ``reference`` is the dense verification build when the route needed
    it (``block`` or ``both``), else None.
    """

    problem: TransmissionProblem
    operators: TransmissionOperators
    sources: InterfaceSources
    interface: InterfaceData
    minus: SubproblemSolution
    plus: SubproblemSolution
    options: SolveOptions
    route_gap: float = 0.0
    reference: Optional[DenseOperators] = None
    report: Optional[ResidualReport] = None

    @property
    def m(self) -> int:
        return self.problem.operator.m

    @property
    def operator(self) -> SectionOperator:
        return self.problem.operator

    @property
    def geometry(self) -> CylinderGeometry:
        return self.problem.geometry

    def side(self, side: str) -> SubproblemSolution:
        return self.minus if side == SIDE_MINUS else self.plus

    def field(self, side: str, xs, order: int = 0) -> np.ndarray:
        """Physical-basis field values, shape (m, len(xs))."""
        return self.side(side).evaluate(np.atleast_1d(xs), order)


def _scaled_sup(residual: np.ndarray, reference: float) -> float:
    return float(np.max(np.abs(residual)) / (1.0 + reference))


def residual_report(
    solution: TransmissionSolution,
    probe_points: Optional[int] = None,
) -> ResidualReport:
    """Quantitative verification of every equation of the problem.

    Evaluates the equation residual on an interior probe grid (with the
    fourth derivative obtained by central-differencing the analytic
    third-derivative field), the four outer boundary conditions, both
    interface-continuity conditions, both flux transmission conditions,
    and the four coefficient identities linking second/third derivative
    combinations at the interface to the alpha coefficients.

    Every term is formed from eigenbasis fields (``modal_field``), where
    A and M^2 act as the per-mode factors mu_j and g_j^2, and mapped to
    the physical basis by one product per side and one at the interface;
    each entry is the scaled sup norm of its physical residual.

    ``det_gap`` compares the per-mode determinant from the block symbols
    with the determinant symbol; when the dense reference was built
    (``block``/``both``) it is the larger of that and the gap to the
    determinant read off the assembled matrices. The conditions are the
    exact per-mode ones of the operators.
    """
    prob = solution.problem
    tops = solution.operators
    geom = prob.geometry
    n_probe = probe_points or solution.options.probe_points
    mu = prob.operator.eigenvalues[:, None]
    q = prob.operator.eigenvectors
    g = tops.generator.eigenvalues
    msq = g**2
    kp, km = prob.k_plus, prob.k_minus
    bc = prob.boundary

    entries = {}
    bvp_est = 0.0
    for sub in (solution.minus, solution.plus):
        if sub.particular is not None:
            bvp_est = max(bvp_est, sub.particular.error_estimate)

    # Per side, one product with Q gives the equation terms on the interior
    # of the probe grid and the field and its slope at the outer end.
    eq_budget = 0.0
    for side, key, end, bc_keys, bc_data in (
            (SIDE_MINUS, "eq_minus", 0, ("bc_1", "bc_2"), (bc.phi1_minus, bc.phi2_minus)),
            (SIDE_PLUS, "eq_plus", -1, ("bc_3", "bc_4"), (bc.phi1_plus, bc.phi2_plus))):
        xs = geom.grid(side, n_probe)
        h = xs[1] - xs[0]
        n = xs.size - 2
        sub = solution.side(side)
        u0, u2, u3 = (sub.modal_field(xs, order) for order in (0, 2, 3))
        phys = q @ np.hstack([
            (u3[:, 2:] - u3[:, :-2]) / (2.0 * h),
            mu * u2[:, 1:-1],
            mu**2 * u0[:, 1:-1],
            prob.forcing.sample(side, xs[1:-1]),
            u0[:, [end]],
            sub.modal_field(xs[end], 1),
        ])
        d4, au2, a2u0, fvals = (phys[:, i * n:(i + 1) * n] for i in range(4))
        res = d4 + 2.0 * au2 + a2u0 - fvals
        ref = max(np.max(np.abs(d4)), 2.0 * np.max(np.abs(au2)),
                  np.max(np.abs(a2u0)), np.max(np.abs(fvals)))
        entries[key] = _scaled_sup(res, ref)
        eq_budget = max(eq_budget, 5.0 * h**2 * np.max(-g))
        for order, (bc_key, data) in enumerate(zip(bc_keys, bc_data)):
            entries[bc_key] = _scaled_sup(phys[:, 4 * n + order] - data, np.max(np.abs(data)))
    eq_budget = max(eq_budget, 10.0 * bvp_est, 1e-11)

    # Interface: one product with Q gives u and u' on both sides, the flux
    # terms t2 = u'' - M^2 u and t3 = u''' - M^2 u', the flux jumps, and the
    # coefficient identities (alphas versus fields).
    def traces(sub):
        u = [sub.modal_field(geom.gamma, order)[:, 0] for order in range(4)]
        return u[0], u[1], u[2] - msq * u[0], u[3] - msq * u[1]

    def f_term(sub):
        """Modal F''' - M^2 F' at the interface end."""
        part = sub.particular
        if part is None:
            return 0.0
        return part.f3_interface - msq * part.fprime_interface

    u0m, u1m, t2m, t3m = traces(solution.minus)
    u0p, u1p, t2p, t3p = traces(solution.plus)
    ec, ed = tops.minus.e, tops.plus.e
    _, a2m, _, a4m = solution.minus.alphas
    _, a2p, _, a4p = solution.plus.alphas
    id2m = 2.0 * g * (-(1.0 - ec) * a2m + (1.0 + ec) * a4m)
    id2p = 2.0 * g * ((1.0 - ed) * a2p + (1.0 + ed) * a4p)
    id3m = 2.0 * msq * ((1.0 + ec) * a2m - (1.0 - ec) * a4m) + f_term(solution.minus)
    id3p = 2.0 * msq * ((1.0 + ed) * a2p + (1.0 - ed) * a4p) + f_term(solution.plus)
    columns = {
        "u0m": u0m, "u0p": u0p, "tc1_u": u0m - u0p,
        "u1m": u1m, "u1p": u1p, "tc1_du": u1m - u1p,
        "t2m": t2m, "t2p": t2p, "tc2_flux2": km * t2m - kp * t2p,
        "t3m": t3m, "t3p": t3p, "tc2_flux3": km * t3m - kp * t3p,
        "id2_minus": t2m - id2m, "id2_plus": t2p - id2p,
        "id3_minus": t3m - id3m, "id3_plus": t3p - id3p,
    }
    sup = dict(zip(columns, np.max(np.abs(q @ np.stack(list(columns.values()), axis=1)),
                                   axis=0)))
    for key, ref in (("tc1_u", max(sup["u0m"], sup["u0p"])),
                     ("tc1_du", max(sup["u1m"], sup["u1p"])),
                     ("tc2_flux2", max(km * sup["t2m"], kp * sup["t2p"])),
                     ("tc2_flux3", max(km * sup["t3m"], kp * sup["t3p"])),
                     ("id2_minus", sup["t2m"]), ("id2_plus", sup["t2p"]),
                     ("id3_minus", sup["t3m"]), ("id3_plus", sup["t3p"])):
        entries[key] = float(sup[key] / (1.0 + ref))

    det_gap = tops.det_gap
    if solution.reference is not None:
        det = tops.det_modal_symbols
        dense_gap = (np.max(np.abs(det - solution.reference.det_modal_assembled))
                     / (1.0 + np.max(np.abs(det))))
        det_gap = max(det_gap, float(dense_gap))
    entries["det_gap"] = det_gap
    entries["route_gap"] = float(solution.route_gap)

    homogeneous_budget = 1e-9
    budgets = {
        "eq_minus": eq_budget, "eq_plus": eq_budget,
        "bc_1": homogeneous_budget, "bc_2": homogeneous_budget,
        "bc_3": homogeneous_budget, "bc_4": homogeneous_budget,
        "tc1_u": homogeneous_budget, "tc1_du": homogeneous_budget,
        "tc2_flux2": homogeneous_budget, "tc2_flux3": homogeneous_budget,
        "id2_minus": homogeneous_budget, "id2_plus": homogeneous_budget,
        "id3_minus": homogeneous_budget, "id3_plus": homogeneous_budget,
        "route_gap": BLOCK_RESIDUAL_TOL, "det_gap": DET_CROSSCHECK_TOL,
    }
    passed = all(entries[key] <= budgets[key] for key in budgets)
    return ResidualReport(
        **entries,
        cond_Uminus=tops.conditions["Uminus"], cond_Uplus=tops.conditions["Uplus"],
        cond_Vminus=tops.conditions["Vminus"], cond_Vplus=tops.conditions["Vplus"],
        cond_Lambda=tops.conditions["Lambda"],
        budgets=budgets, passed=passed,
    )


def solve_transmission(
    operator: SectionOperator,
    geometry: CylinderGeometry,
    k_minus: float,
    k_plus: float,
    forcing: Optional[ModalForcing] = None,
    boundary: Optional[BoundaryData] = None,
    options: Optional[SolveOptions] = None,
) -> TransmissionSolution:
    """Solve the full transmission problem by the representation route.

    Pipeline: particular solutions on both intervals, the boundary data
    in the eigenbasis, boundary-source quadruples, interface sources,
    interface solve, representation coefficients, and the residual
    report. The interface route follows ``options``: ``"calculus"`` is
    the per-mode solve, ``"block"`` the dense LU solve of the
    ``verification`` module, and ``"both"`` runs the two, keeps the
    per-mode solution and records their gap. A residual above its budget
    flags the report; it never silently passes.
    """
    options = options or SolveOptions()
    if forcing is None:
        forcing = ModalForcing.zero(operator.m, geometry)
    if boundary is None:
        boundary = BoundaryData.zeros(operator.m)
    prob = TransmissionProblem(operator, geometry, k_minus, k_plus, forcing, boundary)
    gen = square_root_generator(operator)
    tops = assemble_transmission_operators(gen, geometry, k_minus, k_plus)
    part_m = solve_particular(operator.eigenvalues, geometry, SIDE_MINUS, forcing, options.n_x)
    part_p = solve_particular(operator.eigenvalues, geometry, SIDE_PLUS, forcing, options.n_x)
    phi1_m, phi2_m, phi1_p, phi2_p = operator.to_modal(np.stack(
        [boundary.phi1_minus, boundary.phi2_minus, boundary.phi1_plus, boundary.phi2_plus],
        axis=1)).T
    pt_m = phi_tilde_minus(tops.minus, phi1_m, phi2_m, part_m.fprime_left, part_m.fprime_right)
    pt_p = phi_tilde_plus(tops.plus, phi1_p, phi2_p, part_p.fprime_left, part_p.fprime_right)
    sources = assemble_sources(
        tops, pt_m, pt_p,
        fprime_gamma_minus=part_m.fprime_right, f3_gamma_minus=part_m.f3_right,
        fprime_gamma_plus=part_p.fprime_left, f3_gamma_plus=part_p.f3_left,
    )
    reference = None
    route_gap = 0.0
    if options.route == ROUTE_CALCULUS:
        interface = solve_interface_calculus(tops, sources)
    else:
        reference = assemble_dense_operators(gen, geometry, k_minus, k_plus)
        interface = solve_interface_block(reference, sources)
        if options.route == ROUTE_BOTH:
            block = interface
            interface = solve_interface_calculus(tops, sources)
            scale = 1.0 + max(np.max(np.abs(interface.psi1)), np.max(np.abs(interface.psi2)))
            route_gap = float(max(np.max(np.abs(interface.psi1 - block.psi1)),
                                  np.max(np.abs(interface.psi2 - block.psi2))) / scale)
    al_m = alphas_minus(tops.minus, interface.psi1_hat, interface.psi2_hat, pt_m)
    al_p = alphas_plus(tops.plus, interface.psi1_hat, interface.psi2_hat, pt_p)
    sol = TransmissionSolution(
        problem=prob, operators=tops, sources=sources, interface=interface,
        minus=SubproblemSolution(SIDE_MINUS, geometry, gen, al_m, part_m),
        plus=SubproblemSolution(SIDE_PLUS, geometry, gen, al_p, part_p),
        options=options, route_gap=route_gap, reference=reference,
    )
    return replace(sol, report=residual_report(sol))

"""Interface system assembly, two-route inversion, and orchestration.

The interface unknowns (psi1, psi2) = (u(gamma), u'(gamma)) solve the
2x2 operator system

    (P1+ + P1-) M psi1 - (P2+ - P2-) psi2 = S1
    (P2+ - P2-) M psi1 - (P3+ + P3-) psi2 = S2,

whose blocks are all functions of the same generator M. In the
eigenbasis of M every block is the scalar symbol of the ``symbols``
module, so the default solve is one modal pipeline: the boundary data
enters the eigenbasis once, sources, interface pair and representation
coefficients are O(m) per-mode arithmetic (the sources are flux jumps at
gamma, ``interface_fluxes``), and the fields map back once.
The system matrix splits into 2x2 blocks per mode, inverted by the
cofactor formula with determinant -m_j * f(-mu_j); that is the answer on
every route. The ``both`` route also solves each mode's 8 x 8 system in
the fundamental system of its ODE (the ``verification`` module, which
uses none of the symbols) and records the gap between the two.
Everything that depends only on the operator, the geometry, the
diffusivities and the options is built once, by ``TransmissionSolver``;
``solve_transmission`` keeps the last solver with its operator and reuses
it while those inputs compare equal.
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
    check_diffusivities,
    check_grid,
    check_integer,
)
from .section_operator import SectionOperator
from .subproblem import (
    PARTICULAR_MIN_N_X,
    ParticularSolution,
    SideSymbols,
    SubproblemSolution,
    alphas_minus,
    alphas_plus,
    end_values,
    interface_fluxes,
    phi_tilde_minus,
    phi_tilde_plus,
    side_symbols,
    solve_particular,
)
from .symbols import determinant
from .verification import FundamentalSymbols, fundamental_solve, fundamental_symbols

BLOCK_RESIDUAL_TOL = 1e-10
DET_CROSSCHECK_TOL = 1e-10
ROUTE_FUNDAMENTAL = "fundamental"  # labels the per-mode 8 x 8 answer, the check on "both"
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

    ``minus``/``plus`` hold E, U, V, f_{delta,1..3} and g_delta of each
    interval, so the blocks are P_i = k f_{delta,i} per side. The system matrix is
    Lambda_j = [[g_j p1s_j, -p2d_j], [g_j p2d_j, -p3s_j]] per mode, with
    g_j the generator eigenvalues and p1s = P1+ + P1-, p2d = P2+ - P2-,
    p3s = P3+ + P3-. ``det_modal_symbols`` holds det Lambda_j =
    -g_j f(-mu_j) through the scalar determinant symbol,
    ``det_modal_blocks`` the same numbers as -g_j (p1s p3s - p2d^2) from
    the block symbols; their agreement is the determinant-factorization
    check, and ``det_gap`` their scaled gap. Construction raises
    AnomalyError where f <= 0 at a mode or ``det_gap`` exceeds
    ``DET_CROSSCHECK_TOL``, so no solve runs either gate. ``conditions``
    are exact 2-norm condition numbers: max u / min u, max v / min v, and
    that of Lambda (``_cond_lambda``). Every array is read-only, because a
    ``TransmissionSolver`` hands the same operators to all its solves.
    """

    operator: SectionOperator
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
    det_gap: float = field(init=False)

    def __post_init__(self):
        for side in (self.minus, self.plus):
            for arr in (side.e, side.u, side.v, *side.f):
                arr.flags.writeable = False
        for arr in (self.p1_sum, self.p2_diff, self.p3_sum, self.f_values,
                    self.det_modal_symbols, self.det_modal_blocks):
            arr.flags.writeable = False
        fvals = self.f_values
        if np.any(fvals <= 0.0):
            j = int(np.argmax(fvals <= 0.0))
            raise AnomalyError(f"determinant symbol f({-self.operator.eigenvalues[j]:.6g}) = "
                               f"{fvals[j]:.6g} <= 0 at mode {j} (contradicts its positivity)")
        det = self.det_modal_symbols
        object.__setattr__(self, "det_gap", float(
            np.max(np.abs(self.det_modal_blocks - det)) / (1.0 + np.max(np.abs(det)))))
        if not self.det_gap <= DET_CROSSCHECK_TOL:  # a NaN gap fails too
            raise AnomalyError("determinant factorization cross-check failed: "
                               f"gap {self.det_gap:.3e}")

    @property
    def m(self) -> int:
        return self.operator.m


def assemble_transmission_operators(
    operator: SectionOperator,
    geometry: CylinderGeometry,
    k_minus: float,
    k_plus: float,
) -> TransmissionOperators:
    """Evaluate every interface block symbol on the spectrum, O(m)."""
    minus = side_symbols(operator, geometry.c)
    plus = side_symbols(operator, geometry.d)
    f_vals = determinant(k_minus, k_plus, minus.f, plus.f)
    g = operator.generator_eigenvalues
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
        operator=operator, geometry=geometry, k_minus=k_minus, k_plus=k_plus,
        minus=minus, plus=plus, p1_sum=p1s, p2_diff=p2d, p3_sum=p3s,
        f_values=f_vals, det_modal_symbols=det_sym,
        det_modal_blocks=-g * (p1s * p3s - p2d * p2d), conditions=conditions,
    )


@dataclass(frozen=True)
class InterfaceSources:
    """Right-hand sides S1, S2 of the interface system, in eigenbasis coordinates."""

    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        for name in ("s1", "s2"):
            vec = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if vec.ndim != 1 or not np.all(np.isfinite(vec)):
                raise DimensionMismatchError(f"{name} must be a finite vector")
            object.__setattr__(self, name, vec)
        if self.s1.size != self.s2.size:
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
    """Assemble S1 and S2, per mode.

    S1 = (k+ t3+ - k- t3-) / M^2 and S2 = (k+ t2+ - k- t2-) / M are the
    flux jumps at gamma (``interface_fluxes``) of phi~ with the particular
    traces. The F''' - M^2 F' term of t3 puts the particular-flux source
    -M^{-2} (-k+ F+''' + k+ M^2 F+' + k- F-''' - k- M^2 F-') (gamma) into S1
    (the opposite sign breaks the second transmission condition, and the
    tests demonstrate that). Every input is in eigenbasis coordinates.
    """
    kp, km = operators.k_plus, operators.k_minus
    g = operators.operator.generator_eigenvalues
    t2m, t3m = interface_fluxes(operators.minus, SIDE_MINUS, phi_tilde_m,
                                fprime_gamma_minus, f3_gamma_minus)
    t2p, t3p = interface_fluxes(operators.plus, SIDE_PLUS, phi_tilde_p,
                                fprime_gamma_plus, f3_gamma_plus)
    return InterfaceSources(s1=(kp * t3p - km * t3m) / g**2, s2=(kp * t2p - km * t2m) / g)


@dataclass(frozen=True)
class InterfaceData:
    """Solved interface trace pair with its solve route and residual.

    ``psi1_hat``, ``psi2_hat`` are eigenbasis coordinates (what the
    coefficient recovery consumes); ``psi1``, ``psi2`` map the pair to
    the physical basis when read, so a solve that reads neither maps nothing.
    """

    operator: SectionOperator
    psi1_hat: np.ndarray
    psi2_hat: np.ndarray
    route: str
    residual: float

    def __post_init__(self):
        if not self.residual <= BLOCK_RESIDUAL_TOL:  # a NaN residual fails too
            raise AnomalyError(
                f"interface solve residual {self.residual:.3e} exceeds "
                f"{BLOCK_RESIDUAL_TOL:g} (route {self.route!r})"
            )

    @property
    def psi1(self) -> np.ndarray:
        return self.operator.from_modal(self.psi1_hat)

    @property
    def psi2(self) -> np.ndarray:
        return self.operator.from_modal(self.psi2_hat)


def solve_interface_block(operators: TransmissionOperators, phi_hat: tuple,
                          part_minus: ParticularSolution,
                          part_plus: ParticularSolution) -> InterfaceData:
    """Per-mode 8 x 8 fundamental-system solve of the whole problem (verification route).

    ``phi_hat`` is the modal boundary data (phi1-, phi2-, phi1+, phi2+);
    see ``verification.fundamental_solve``.
    """
    psi1_hat, psi2_hat, residual = fundamental_solve(operators, phi_hat, part_minus, part_plus)
    return InterfaceData(operators.operator, psi1_hat, psi2_hat, ROUTE_FUNDAMENTAL, residual)


def _norm(*vectors: np.ndarray) -> float:
    """2-norm of the stacked vectors, scaled by the largest entry so no square over- or underflows."""
    vec = np.concatenate(vectors)
    top = float(np.max(np.abs(vec), initial=0.0))
    if not 0.0 < top < np.inf:
        return top  # 0, inf or NaN as it stands
    return top * float(np.sqrt(np.sum((vec / top) ** 2)))


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
    op = operators.operator
    g = op.generator_eigenvalues
    p1s, p2d, p3s = operators.p1_sum, operators.p2_diff, operators.p3_sum
    det = operators.det_modal_symbols
    s1, s2 = sources.s1, sources.s2
    psi1_hat = (-p3s * s1 + p2d * s2) / det
    psi2_hat = g * (-p2d * s1 + p1s * s2) / det
    res1 = g * p1s * psi1_hat - p2d * psi2_hat - s1
    res2 = g * p2d * psi1_hat - p3s * psi2_hat - s2
    residual = _norm(res1, res2) / (1.0 + _norm(s1, s2))
    return InterfaceData(op, psi1_hat, psi2_hat, ROUTE_CALCULUS, residual)


def leading_order_interface(operators: TransmissionOperators,
                            sources: InterfaceSources):
    """Leading-order interface data with the smoothing remainders dropped.

    psi1 ~ (k+ + k-) / (8 k+ k-) M^{-1} S1 - (k+ - k-) / (8 k+ k-) M^{-1} S2,
    psi2 ~ (k+ - k-) / (8 k+ k-) S1 - (k+ + k-) / (8 k+ k-) S2.

    The dropped remainders are smoothing operators whose contribution
    decays exponentially with the interval lengths. Returns the pair in
    the physical basis.
    """
    op = operators.operator
    kp, km = operators.k_plus, operators.k_minus
    cp = (kp + km) / (8.0 * kp * km)
    cm = (kp - km) / (8.0 * kp * km)
    s1, s2 = sources.s1, sources.s2
    psi1 = op.from_modal((cp * s1 - cm * s2) / op.generator_eigenvalues)
    psi2 = op.from_modal(cm * s1 - cp * s2)
    return psi1, psi2


@dataclass(frozen=True)
class SolveOptions:
    """Solver options: interface route (calculus|both), modal BVP grid, probe density.

    ``probe_points`` sets the per-side grid of the solution CSV, of the
    command-line oracle comparisons and of a forced side's ``eq_*``
    entry; no other report entry reads a grid. The one gate and default of
    these settings, the configuration's ``solver`` section and ``--nx``
    included: an unknown route, a non-integer count or ``probe_points < 5``
    raises ValueError, and ``n_x < 17`` the particular solve's ResolutionError (``check_grid``).
    """

    route: str = ROUTE_CALCULUS
    n_x: int = 129
    probe_points: int = 33

    def __post_init__(self):
        if self.route not in (ROUTE_CALCULUS, ROUTE_BOTH):
            raise ValueError(f"unknown route {self.route!r}, expected calculus|both")
        check_grid(self.n_x, PARTICULAR_MIN_N_X)
        check_integer("probe_points", self.probe_points)
        if self.probe_points < 5:
            raise ValueError(f"need at least 5 probe points, got {self.probe_points}")


@dataclass(frozen=True)
class ResidualReport:
    """Scaled sup-norm residuals of the assembled transmission solution.

    The boundary and interface entries are read from closed-form per-mode
    end values and flux traces, exact in x, and budgeted at 1e-9. The
    homogeneous part satisfies the equation exactly per mode, so
    ``eq_*`` is the particular part's residual: one numerical
    differentiation of its interpolated third derivative on the probe
    grid, budgeted from the probe spacing and the observed BVP error, and
    exactly 0 on a side without forcing or particular part.
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

    ``reference`` holds the fundamental-system interface symbols on the
    ``both`` route, else None.
    """

    problem: TransmissionProblem
    operators: TransmissionOperators
    sources: InterfaceSources
    interface: InterfaceData
    minus: SubproblemSolution
    plus: SubproblemSolution
    options: SolveOptions
    route_gap: float = 0.0
    reference: Optional[FundamentalSymbols] = None
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


def residual_report(solution: TransmissionSolution) -> ResidualReport:
    """Quantitative verification of every equation of the problem.

    Per mode the homogeneous part is an exact combination of e^{g s1},
    s1 e^{g s1}, e^{g s2} and s2 e^{g s2}, so (d^2 - g_j^2)^2 u_j = 0 holds
    identically and only the particular part F can leave an equation
    residual. ``eq_*`` is therefore F's residual
    F'''' + 2 A F'' + A^2 F - f on the interior of a grid of
    ``solution.options.probe_points`` points per side, with F'''' the
    central difference of F''' (``ParticularSolution.terms``); its only
    nonzero rows are ``particular.active`` and, on a forced side, the
    forcing's declared ``modes``. A side with neither reads exactly 0.
    The four outer boundary conditions and the interface continuity of u
    and u' read the closed-form end values of ``end_values``, and the
    flux transmission conditions the closed-form traces of
    ``interface_fluxes``. Every term is formed in the eigenbasis, where A
    acts as the per-mode factor mu_j, and all of them reach the physical
    basis through one product; each entry is the scaled sup norm of its
    physical residual.

    ``det_gap`` compares the per-mode determinant from the block symbols
    with the determinant symbol; on ``both`` it is the larger of that and
    the gap to the determinant formed from the fundamental-system symbols.
    The conditions are the exact per-mode ones of the operators.
    """
    prob = solution.problem
    op, forcing = prob.operator, prob.forcing
    tops = solution.operators
    mu = op.eigenvalues[:, None]
    kp, km = prob.k_plus, prob.k_minus
    bc = prob.boundary

    entries = {"eq_minus": 0.0, "eq_plus": 0.0}
    bvp_est = 0.0
    for sub in (solution.minus, solution.plus):
        if sub.particular is not None:
            bvp_est = max(bvp_est, sub.particular.error_estimate)

    # u and u' at both ends of each interval, and the closed-form flux
    # terms t2 = u'' - M^2 u and t3 = u''' - M^2 u' at gamma.
    ends, fluxes = [], []
    for sub, side_ops in ((solution.minus, tops.minus), (solution.plus, tops.plus)):
        part = sub.particular
        active = part is not None and part.active.size
        traces = (part.fprime_interface, part.f3_interface) if active else ()
        ends.append(end_values(side_ops, sub.side, sub.alphas, part))
        fluxes.append(interface_fluxes(side_ops, sub.side, sub.alphas, *traces))
    ((u_a, du_a), (u0m, u1m)), ((u0p, u1p), (u_b, du_b)) = ends
    (t2m, t3m), (t2p, t3p) = fluxes
    columns = {
        "bc_1": u_a, "bc_2": du_a, "bc_3": u_b, "bc_4": du_b,
        "u0m": u0m, "u0p": u0p, "tc1_u": u0m - u0p,
        "u1m": u1m, "u1p": u1p, "tc1_du": u1m - u1p,
        "t2m": t2m, "t2p": t2p, "tc2_flux2": km * t2m - kp * t2p,
        "t3m": t3m, "t3p": t3p, "tc2_flux3": km * t3m - kp * t3p,
    }
    blocks = [np.array(list(columns.values())).T]  # (m, 16), contiguous columns

    # The particular part's terms F'''' (a central difference of F'''),
    # A F'', A^2 F and f on the probe interior, for each side with a
    # forcing or an active row; the other sides read exactly 0.
    eq_budget, eq_sides = 0.0, []
    max_g = -op.generator_eigenvalues[0]  # the eigenvalues ascend
    n_probe = solution.options.probe_points
    for side, sub in ((SIDE_MINUS, solution.minus), (SIDE_PLUS, solution.plus)):
        h = prob.geometry.length(side) / (n_probe - 1)
        eq_budget = max(eq_budget, 5.0 * h**2 * max_g)
        part = sub.particular
        forced = not forcing.vanishes(side)
        if not forced and (part is None or not part.active.size):
            continue
        xs = prob.geometry.grid(side, n_probe)
        terms = (np.zeros((4, op.m, xs.size)) if part is None
                 else part.terms(xs, op.eigenvalues))
        blocks += [(terms[3, :, 2:] - terms[3, :, :-2]) / (2.0 * h),
                   mu * terms[2, :, 1:-1], mu**2 * terms[0, :, 1:-1],
                   forcing.sample(side, xs[1:-1]) if forced else np.zeros((op.m, xs.size - 2))]
        eq_sides.append(side)
    eq_budget = max(eq_budget, 10.0 * bvp_est, 1e-11)

    phys = op.from_modal(np.hstack(blocks) if len(blocks) > 1 else blocks[0])
    phys_ends = phys[:, :len(columns)].T  # one row per entry of columns
    phys_eq = phys[:, len(columns):].reshape(op.m, len(eq_sides), 4, n_probe - 2)
    for i, side in enumerate(eq_sides):
        d4, au2, a2u0, fvals = (phys_eq[:, i, j] for j in range(4))
        ref = max(np.max(np.abs(d4)), 2.0 * np.max(np.abs(au2)),
                  np.max(np.abs(a2u0)), np.max(np.abs(fvals)))
        entries["eq_" + side] = _scaled_sup(d4 + 2.0 * au2 + a2u0 - fvals, ref)

    # One reduction for the boundary residuals, the data's scale and every end column.
    data = np.array([bc.phi1_minus, bc.phi2_minus, bc.phi1_plus, bc.phi2_plus])
    sups = np.abs(np.concatenate([phys_ends[:4] - data, data, phys_ends])).max(axis=1).tolist()
    for i, key in enumerate(("bc_1", "bc_2", "bc_3", "bc_4")):
        entries[key] = sups[i] / (1.0 + sups[4 + i])
    sup = dict(zip(columns, sups[8:]))
    for key, ref in (("tc1_u", max(sup["u0m"], sup["u0p"])),
                     ("tc1_du", max(sup["u1m"], sup["u1p"])),
                     ("tc2_flux2", max(km * sup["t2m"], kp * sup["t2p"])),
                     ("tc2_flux3", max(km * sup["t3m"], kp * sup["t3p"]))):
        entries[key] = sup[key] / (1.0 + ref)

    det_gap = tops.det_gap
    if solution.reference is not None:
        det = tops.det_modal_symbols
        ref_gap = (np.max(np.abs(det - solution.reference.det_modal))
                   / (1.0 + np.max(np.abs(det))))
        det_gap = max(det_gap, float(ref_gap))
    entries["det_gap"] = det_gap
    entries["route_gap"] = float(solution.route_gap)

    homogeneous_budget = 1e-9
    budgets = {
        "eq_minus": eq_budget, "eq_plus": eq_budget,
        "bc_1": homogeneous_budget, "bc_2": homogeneous_budget,
        "bc_3": homogeneous_budget, "bc_4": homogeneous_budget,
        "tc1_u": homogeneous_budget, "tc1_du": homogeneous_budget,
        "tc2_flux2": homogeneous_budget, "tc2_flux3": homogeneous_budget,
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


class TransmissionSolver:
    """The transmission problem of one operator, geometry and diffusivity pair, built once.

    Construction forms everything that depends on these inputs and the
    options alone: both intervals' symbols, the interface blocks, their
    conditions, determinant gap and gates (``assemble_transmission_operators``),
    the fundamental-system symbols on the ``both`` route and the zero
    forcing. ``solve`` runs what depends on the forcing and boundary
    data, so a new right-hand side passes through fixed per-mode functions
    of M; on ``both`` it also re-forms each mode's 8 x 8 fundamental-system
    rows, which depend on the operators alone.
    """

    def __init__(self, operator: SectionOperator, geometry: CylinderGeometry,
                 k_minus: float, k_plus: float, options: Optional[SolveOptions] = None):
        check_diffusivities(k_minus, k_plus)
        self.operator, self.geometry = operator, geometry
        self.k_minus, self.k_plus = k_minus, k_plus
        self.options = options or SolveOptions()
        self.operators = assemble_transmission_operators(operator, geometry, k_minus, k_plus)
        self.reference = (fundamental_symbols(self.operators)
                          if self.options.route == ROUTE_BOTH else None)
        self.zero_forcing = ModalForcing.zero(operator.m, geometry)

    def matches(self, geometry: CylinderGeometry, k_minus: float, k_plus: float,
                options: SolveOptions) -> bool:
        """True when this solver was built for these inputs (its operator aside)."""
        return (self.geometry == geometry and self.k_minus == k_minus
                and self.k_plus == k_plus and self.options == options)

    def solve(self, forcing: Optional[ModalForcing] = None,
              boundary: Optional[BoundaryData] = None) -> TransmissionSolution:
        """Solve for one forcing and boundary data (zero when None).

        Pipeline: particular solutions on both intervals, the boundary
        data in the eigenbasis, boundary-source quadruples, interface
        sources, interface solve, representation coefficients, and the
        residual report. The interface pair is always the per-mode solve;
        on the ``"both"`` route the fundamental-system solve of the
        ``verification`` module runs too and their gap is recorded. A
        residual above its budget flags the report; it never silently
        passes.
        """
        op, geometry, tops, options = self.operator, self.geometry, self.operators, self.options
        if forcing is None:
            forcing = self.zero_forcing
        if boundary is None:
            boundary = BoundaryData.zeros(op.m)
        prob = TransmissionProblem(op, geometry, self.k_minus, self.k_plus, forcing, boundary)
        part_m = solve_particular(op.eigenvalues, geometry, SIDE_MINUS, forcing, options.n_x)
        part_p = solve_particular(op.eigenvalues, geometry, SIDE_PLUS, forcing, options.n_x)
        phi_hat = op.to_modal(np.stack(
            [boundary.phi1_minus, boundary.phi2_minus, boundary.phi1_plus, boundary.phi2_plus],
            axis=1)).T
        phi1_m, phi2_m, phi1_p, phi2_p = phi_hat
        pt_m = phi_tilde_minus(tops.minus, phi1_m, phi2_m, part_m.fprime_left,
                               part_m.fprime_right)
        pt_p = phi_tilde_plus(tops.plus, phi1_p, phi2_p, part_p.fprime_left,
                              part_p.fprime_right)
        sources = assemble_sources(
            tops, pt_m, pt_p,
            fprime_gamma_minus=part_m.fprime_right, f3_gamma_minus=part_m.f3_right,
            fprime_gamma_plus=part_p.fprime_left, f3_gamma_plus=part_p.f3_left,
        )
        interface = solve_interface_calculus(tops, sources)
        route_gap = 0.0
        if options.route == ROUTE_BOTH:
            check = solve_interface_block(tops, phi_hat, part_m, part_p)
            pair, ref = (np.stack([data.psi1, data.psi2]) for data in (interface, check))
            route_gap = float(np.max(np.abs(pair - ref)) / (1.0 + np.max(np.abs(pair))))
        al_m = alphas_minus(tops.minus, interface.psi1_hat, interface.psi2_hat, pt_m)
        al_p = alphas_plus(tops.plus, interface.psi1_hat, interface.psi2_hat, pt_p)
        sol = TransmissionSolution(
            problem=prob, operators=tops, sources=sources, interface=interface,
            minus=SubproblemSolution(SIDE_MINUS, geometry, op, al_m, part_m),
            plus=SubproblemSolution(SIDE_PLUS, geometry, op, al_p, part_p),
            options=options, route_gap=route_gap, reference=self.reference,
        )
        return replace(sol, report=residual_report(sol))


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

    ``TransmissionSolver.solve`` on the last solver built on this operator
    object when its geometry, diffusivities and options compare equal to
    these, else on a new one, which the operator then keeps (so it goes
    with the operator). Two threads may each build one; either is kept,
    and both give the same answers.
    """
    options = options or SolveOptions()
    solver = operator._solver
    if solver is None or not solver.matches(geometry, k_minus, k_plus, options):
        solver = TransmissionSolver(operator, geometry, k_minus, k_plus, options)
        object.__setattr__(operator, "_solver", solver)
    return solver.solve(forcing, boundary)

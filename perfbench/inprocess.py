"""In-process workloads: seeded inputs, the timed library call, and its check.

Each workload hands `bitrans.solve_transmission` only the inputs it
generates from its seed, and checks every answer against a closed form
that it evaluates itself, never against the solver's residual report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import bitrans as bt

GEOMETRY = (-0.7, 0.0, 1.3)
SECTION_LENGTH = 1.0
K_PAIR = (1.0, 3.0)
PROBE_POINTS = 33


@dataclass(frozen=True)
class ScaledExponentialCase:
    """Closed-form homogeneous solution, written so no exponent is positive.

    Per mode, u_j(x) = b1_j e^{s_j (x - b)} + b2_j e^{-s_j (x - a)} on both
    intervals, with s_j = sqrt(-mu_j). It is the exponential pair
    a1 e^{s (x - gamma)} + a2 e^{-s (x - gamma)} with a1 = b1 e^{-s d} and
    a2 = b2 e^{-s c}, so every mode is O(1) on its interval. Since
    u_j'' + mu_j u_j = 0, both flux conditions hold for any diffusivities.
    `bitrans.ExactCase` evaluates the unscaled pair and overflows
    (exp(s x) with s near 1026) at m = 512, hence this form.
    """

    operator: bt.SectionOperator
    geometry: bt.CylinderGeometry
    b1: np.ndarray
    b2: np.ndarray

    @classmethod
    def draw(cls, operator, geometry, rng) -> "ScaledExponentialCase":
        b1, b2 = rng.standard_normal((2, operator.m))
        return cls(operator, geometry, b1, b2)

    def field(self, side: str, xs, order: int = 0) -> np.ndarray:
        """Values of the order-th x-derivative, shape (m, len(xs)); one formula on both sides."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        s = np.sqrt(-self.operator.eigenvalues)[:, None]
        grow = np.exp(s * (xs - self.geometry.b))
        decay = np.exp(-s * (xs - self.geometry.a))
        modal = s**order * (self.b1[:, None] * grow
                            + (-1.0) ** order * self.b2[:, None] * decay)
        return self.operator.eigenvectors @ modal

    def boundary_data(self) -> bt.BoundaryData:
        a, b = self.geometry.a, self.geometry.b
        return bt.BoundaryData(self.field(bt.SIDE_MINUS, a, 0)[:, 0],
                               self.field(bt.SIDE_MINUS, a, 1)[:, 0],
                               self.field(bt.SIDE_PLUS, b, 0)[:, 0],
                               self.field(bt.SIDE_PLUS, b, 1)[:, 0])


def relative_field_error(solution, reference) -> float:
    """Sup over both intervals of |u - u_ref|, relative to sup |u_ref|."""
    worst = scale = 0.0
    for side in bt.SIDES:
        xs = solution.geometry.grid(side, PROBE_POINTS)
        ref = reference.field(side, xs, 0)
        worst = max(worst, float(np.max(np.abs(solution.field(side, xs, 0) - ref))))
        scale = max(scale, float(np.max(np.abs(ref))))
    return worst / scale


@dataclass(frozen=True)
class Request:
    """One solve: the library inputs plus the reference they were built from."""

    k_minus: float
    k_plus: float
    forcing: object
    boundary: bt.BoundaryData
    reference: object


class _SolveWorkload:
    """A fixed section operator and geometry; each request is one solve."""

    name = ""
    tolerance = 0.0
    in_process = True

    def __init__(self, seed: int, m: int, n_x: int):
        self.rng = np.random.default_rng(seed)
        self.operator = bt.build_dirichlet_laplacian_1d(m, SECTION_LENGTH)
        self.geometry = bt.CylinderGeometry(*GEOMETRY)
        self.options = bt.SolveOptions(n_x=n_x)

    def call(self, req: Request):
        return bt.solve_transmission(self.operator, self.geometry, req.k_minus,
                                     req.k_plus, req.forcing, req.boundary, self.options)

    def check(self, req: Request, solution) -> tuple[bool, list[bool]]:
        """(answer within tolerance, residual-report pass flags)."""
        ok = relative_field_error(solution, req.reference) <= self.tolerance
        return ok, [bool(solution.report.passed)]


class ModalSweep(_SolveWorkload):
    """m = 256 operator shared by every request; fresh boundary data, no forcing.

    Dense m^3 assembly dominates. Every request repeats (operator,
    geometry, k), the reuse a build-once solver targets, and the zero
    forcing makes every particular solve wasted work.
    """

    name = "modal-sweep"
    tolerance = 1e-10

    def __init__(self, seed: int, m: int = 256, n_x: int = 129):
        super().__init__(seed, m, n_x)

    def next_request(self) -> Request:
        case = ScaledExponentialCase.draw(self.operator, self.geometry, self.rng)
        return Request(*K_PAIR, None, case.boundary_data(), case)


class AxialForced(_SolveWorkload):
    """m = 32, n_x = 2049; every request is a fresh manufactured forced case.

    The per-mode particular solves dominate and assembly is a few percent.
    Each request draws its own diffusivity pair, so no two requests share
    an operator set.
    """

    name = "axial-forced"
    tolerance = 1e-9
    smooth_modes = 4
    profile_degree = 4

    def __init__(self, seed: int, m: int = 32, n_x: int = 2049):
        super().__init__(seed, m, n_x)

    def next_request(self) -> Request:
        rng = self.rng
        k_minus, k_plus = np.exp(rng.uniform(np.log(0.25), np.log(4.0), 2))
        mode = int(rng.integers(self.smooth_modes))
        profile = rng.standard_normal(self.profile_degree + 1)
        psi1, psi2 = rng.standard_normal(2)
        case = bt.manufactured_forced(self.operator, self.geometry, float(k_minus),
                                      float(k_plus), mode, profile, float(psi1), float(psi2))
        return Request(float(k_minus), float(k_plus), case.forcing(),
                       case.boundary_data(), case)

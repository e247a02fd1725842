"""Exception types raised by the solver library.

The split mirrors how callers are expected to react: input problems
(geometry, symmetry, configuration) versus structural breakdowns that
contradict a proven property of the continuous problem (anomalies).
"""


class SolverError(Exception):
    """Base class for all library-specific errors."""


class InvalidGeometryError(SolverError):
    """Degenerate or ill-ordered geometry (empty interval, m = 0, L <= 0)."""


class SymmetryError(SolverError):
    """Section matrix is not symmetric within tolerance."""


class HypothesisViolationError(SolverError):
    """Section matrix violates the negative-definiteness gate.

    The gate is the finite-dimensional surrogate of the standing
    hypotheses on the section operator: invertibility (H2: 0 in the
    resolvent set) and sectoriality of angle zero (H4). Any eigenvalue
    at or above -tol * max|eigenvalue| is rejected rather than shifted.
    """


class BranchCutError(SolverError):
    """Scalar symbol evaluated off the positive real axis: at a complex z or any z <= 0."""


class EvaluationError(SolverError):
    """Spectral function not finite (or not real) on the spectrum."""


class ResolutionError(SolverError):
    """Grid too coarse for the requested discrete operation."""


class DimensionMismatchError(SolverError):
    """Vector or matrix dimensions inconsistent with the section operator."""


class AnomalyError(SolverError):
    """Numerical contradiction of a structurally guaranteed property.

    Raised when something that is provably true of the assembled system
    (invertibility of Lambda and of each mode's fundamental-system
    problem, positivity of the determinant symbol) fails numerically;
    this always indicates broken inputs or a bug, never a legitimate
    input regime.
    """


class ConfigError(SolverError):
    """Run configuration file missing, malformed, or inconsistent."""

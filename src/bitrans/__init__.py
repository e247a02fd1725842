"""Biharmonic transmission problems on a two-piece cylinder.

Semigroup representation solver for the coupled fourth-order interface
problem, with a functional-calculus route through the scalar determinant
symbol and an independent finite-difference oracle.
"""

from .errors import (
    AnomalyError,
    BranchCutError,
    ConfigError,
    DimensionMismatchError,
    EvaluationError,
    HypothesisViolationError,
    InvalidGeometryError,
    ResolutionError,
    SolverError,
    SymmetryError,
)
from .oracle import (
    ErrorMetrics,
    ExactCase,
    ForcedCase,
    OracleSolution,
    RateTable,
    compare,
    convergence_study,
    direct_solve,
    manufactured_forced,
    manufactured_homogeneous,
)
from .problem import (
    SIDE_MINUS,
    SIDE_PLUS,
    SIDES,
    BoundaryData,
    CylinderGeometry,
    ModalForcing,
    TransmissionProblem,
)
from .section_operator import (
    SectionOperator,
    build_dirichlet_laplacian_1d,
    from_matrix,
    from_matrix_file,
    read_matrix_file,
)
from .subproblem import (
    ParticularSolution,
    SideSymbols,
    SubproblemSolution,
    alphas_minus,
    alphas_plus,
    phi_tilde_minus,
    phi_tilde_plus,
    side_symbols,
    solve_particular,
)
from .symbols import (
    PositivityScan,
    SymbolContext,
    determinant,
    f_components,
    f_tilde,
    f_total,
    interval_symbols,
    positivity_scan,
    u_delta,
    v_delta,
)
from .transmission import (
    InterfaceData,
    InterfaceSources,
    ResidualReport,
    SolveOptions,
    TransmissionOperators,
    TransmissionSolution,
    TransmissionSolver,
    assemble_sources,
    assemble_transmission_operators,
    leading_order_interface,
    residual_report,
    solve_interface_block,
    solve_interface_calculus,
    solve_transmission,
)
from .verification import (
    FundamentalSystem,
    fundamental_solve,
    fundamental_system,
    spectral_mapping_gap,
)

__version__ = "0.1.0"

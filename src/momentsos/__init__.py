"""Moment/SOS machinery for convex polynomial optimization.

Modules
-------
poly        multivariate polynomials and basic semialgebraic sets
sdp         block-diagonal SDP solver (primal-dual interior point)
moments     pseudo-moment vectors, moment and localizing matrices
sos         SOS decomposition, SOS-convexity, Jensen-type checks
hierarchy   the relaxation hierarchy with exactness detection
convexcert  convexity certification and semidefinite representations
cli         the `momentsos` command-line entry point
"""

from .convexcert import (
    ConstraintRecord,
    ConvexityCertificate,
    ProbeReport,
    SdrRepresentation,
    build_sdr,
    certify_convexity,
    nondegeneracy_probe,
    rho_program,
    sample_supporting_hyperplane,
    sdr_support,
    slater_heuristic,
)
from .hierarchy import (
    HierarchyOptions,
    PolyOptProblem,
    RelaxationResult,
    ball_augment,
    build_qhat,
    build_qr,
    kkt_residuals,
    lagrangian,
    solve_hierarchy,
)
from .moments import (
    MomentVector,
    localizing_matrix,
    mean_point,
    moment_matrix,
    riesz,
)
from .poly import (
    Polynomial,
    PreconditionFailure,
    SemialgebraicSet,
    monomial_basis,
)
from .sdp import (
    SdpProblem,
    SdpSolution,
    SdpStatus,
    SolverOptions,
    solve,
)
from .sos import (
    GramIdentity,
    JensenReport,
    SosConvexity,
    SosDecomposition,
    is_sos_convex,
    jensen_check,
    jensen_composed_check,
    random_admissible_moments,
    random_sos_convex,
    sos_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintRecord",
    "ConvexityCertificate",
    "GramIdentity",
    "HierarchyOptions",
    "JensenReport",
    "MomentVector",
    "PolyOptProblem",
    "Polynomial",
    "PreconditionFailure",
    "ProbeReport",
    "RelaxationResult",
    "SdpProblem",
    "SdpSolution",
    "SdpStatus",
    "SdrRepresentation",
    "SemialgebraicSet",
    "SolverOptions",
    "SosConvexity",
    "SosDecomposition",
    "ball_augment",
    "build_qhat",
    "build_qr",
    "build_sdr",
    "certify_convexity",
    "is_sos_convex",
    "jensen_check",
    "jensen_composed_check",
    "kkt_residuals",
    "lagrangian",
    "localizing_matrix",
    "mean_point",
    "moment_matrix",
    "monomial_basis",
    "nondegeneracy_probe",
    "random_admissible_moments",
    "random_sos_convex",
    "rho_program",
    "riesz",
    "sample_supporting_hyperplane",
    "sdr_support",
    "slater_heuristic",
    "solve",
    "solve_hierarchy",
    "sos_decompose",
]

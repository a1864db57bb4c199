"""cgkit: conjugate-gradient solver and identity verifier for SPD quadratics.

Solves ``min f(x) = 0.5 x.T A x + b.T x`` with interchangeable stepsize and
direction-coupling rules, records full iteration traces, and numerically
certifies the orthogonality/conjugacy structure of the iteration: descent,
direction conjugacy, gradient orthogonality, gradient A-conjugacy, the
equivalence of the exact-line-search and gradient-orthogonality stepsizes,
agreement of the FR/HS/PRP/DY coupling rules, and finite termination
against a direct-solve oracle.
"""

from .errors import (
    BreakdownError,
    CgKitError,
    DimensionError,
    IncompleteTraceError,
    MatrixMarketError,
    NotPositiveDefiniteError,
    ProblemSpecError,
    SymmetryError,
)
from .linalg import (
    MatrixSPD,
    SpectrumSpec,
    dot,
    generate_spd,
    matvec,
    solve_direct,
    spd_validate,
)
from .cg import (
    BetaRule,
    GradientUpdate,
    IterationRecord,
    IterationTrace,
    QuadraticProblem,
    SolverConfig,
    StepsizeRule,
    TerminationReason,
    beta,
    direction,
    gradient,
    initial_record,
    objective,
    solve,
    step,
    stepsize_exact,
    stepsize_orthogonal,
)
from .verify import (
    CheckResult,
    IdentityResidual,
    VerificationReport,
    check_beta_agreement,
    check_classical_identities,
    check_finite_termination,
    check_gradient_conjugacy,
    check_stepsize_equivalence,
    estimate_condition,
    run_all_checks,
)
from .problems_io import (
    BuiltinProblemSpec,
    TraceDocument,
    builtin_problem,
    read_matrix_market,
    read_trace,
    read_vector_file,
    report_from_dict,
    report_to_dict,
    write_matrix_market,
    write_trace,
    write_vector_file,
)

__version__ = "0.1.0"

__all__ = [
    "BreakdownError", "CgKitError", "DimensionError", "IncompleteTraceError",
    "MatrixMarketError", "NotPositiveDefiniteError", "ProblemSpecError",
    "SymmetryError",
    "MatrixSPD", "SpectrumSpec", "dot", "generate_spd", "matvec",
    "solve_direct", "spd_validate",
    "BetaRule", "GradientUpdate", "IterationRecord", "IterationTrace",
    "QuadraticProblem", "SolverConfig", "StepsizeRule", "TerminationReason",
    "beta", "direction", "gradient", "initial_record", "objective", "solve",
    "step", "stepsize_exact", "stepsize_orthogonal",
    "CheckResult", "IdentityResidual", "VerificationReport",
    "check_beta_agreement", "check_classical_identities",
    "check_finite_termination", "check_gradient_conjugacy",
    "check_stepsize_equivalence", "estimate_condition", "run_all_checks",
    "BuiltinProblemSpec", "TraceDocument", "builtin_problem",
    "read_matrix_market", "read_trace", "read_vector_file",
    "report_from_dict", "report_to_dict", "write_matrix_market",
    "write_trace", "write_vector_file",
    "__version__",
]

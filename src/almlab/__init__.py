"""almlab: augmented Lagrangian dual ascent with certificate-grade checks.

The package solves linearly constrained convex programs
min f(x) subject to A x = b by gradient ascent on the augmented dual, and
ships a verification layer that numerically certifies the structural facts
the method rests on (full dual domain, concavity, 1/rho-smoothness, the
gradient formula, and the Moreau/conjugate forms of the dual).
"""

from .atoms import (
    Atom,
    Box,
    CompositeFunction,
    L1,
    L2Ball,
    Linear,
    Nonneg,
    Quadratic,
    SmoothQuadratic,
    ValidationError,
    Zero,
)
from .bench import FAMILIES, BenchmarkSpec, generate
from .dual import (
    OuterSettings,
    SolveTrace,
    TraceRecord,
    accelerated_alm,
    alm,
)
from .fileio import (
    certificate_to_dict,
    problem_from_dict,
    problem_to_dict,
    read_problem,
    read_report,
    read_trace,
    write_problem,
    write_report,
    write_trace,
)
from .inner import DivergenceDetected, InnerSolution, solve_subproblem
from .problem import ProblemInstance, aug_lagrangian, lagrangian, operator_norm_sq
from .verify import (
    Certificate,
    check_concavity,
    check_conjugate_identity,
    check_gradient_fd,
    check_gradient_fd_sampled,
    check_gradient_invariance,
    check_moreau_identity,
    check_smoothness,
    default_lambda_grid,
)

__version__ = "0.1.0"

__all__ = [
    "Atom", "Box", "CompositeFunction", "L1", "L2Ball", "Linear", "Nonneg",
    "Quadratic", "SmoothQuadratic", "ValidationError", "Zero",
    "FAMILIES", "BenchmarkSpec", "generate",
    "OuterSettings", "SolveTrace", "TraceRecord", "accelerated_alm", "alm",
    "certificate_to_dict", "problem_from_dict", "problem_to_dict",
    "read_problem", "read_report", "read_trace",
    "write_problem", "write_report", "write_trace",
    "DivergenceDetected", "InnerSolution", "solve_subproblem",
    "ProblemInstance", "aug_lagrangian", "lagrangian", "operator_norm_sq",
    "Certificate",
    "check_concavity", "check_conjugate_identity", "check_gradient_fd",
    "check_gradient_fd_sampled", "check_gradient_invariance",
    "check_moreau_identity", "check_smoothness", "default_lambda_grid",
    "__version__",
]

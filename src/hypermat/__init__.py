"""Gauss and Appell hypergeometric functions of matrix arguments.

Truncated-series evaluation with non-commuting square matrix parameters, a
catalog of parameter-shift recursion identities, and machinery to verify
every catalogued identity numerically on commuting parameter families.
"""

from .calculus import (
    CommutingFamily,
    PochhammerChain,
    gamma_limit,
    pochhammer,
    pochhammer_inverse,
    random_commuting_family,
)
from .errors import (
    DimensionMismatch,
    DomainViolation,
    GenerationFailed,
    HypermatError,
    HypothesisViolated,
    NonConvergent,
    NotConverged,
    Overflow,
    ParseError,
    SingularMatrix,
    SingularShift,
    UnknownIdentity,
)
from .linalg import (
    commutator_norm,
    frobenius_norm,
    inverse,
    is_invertible,
    is_positive_stable,
    mat_exp,
    spectrum,
)
from .recursions import (
    IdentityDescriptor,
    VerificationReport,
    catalog,
    check_hypotheses,
    eval_rhs,
    run_campaign,
    verify_identity,
)
from .series import (
    DEFAULT_CONFIG,
    EvalPoint,
    EvalReport,
    FunctionKind,
    ParameterSet,
    SeriesConfig,
    check_domain,
    evaluate,
    evaluate_many,
)

__version__ = "0.1.0"

__all__ = [
    "CommutingFamily",
    "DEFAULT_CONFIG",
    "DimensionMismatch",
    "DomainViolation",
    "EvalPoint",
    "EvalReport",
    "FunctionKind",
    "GenerationFailed",
    "HypermatError",
    "HypothesisViolated",
    "IdentityDescriptor",
    "NonConvergent",
    "NotConverged",
    "Overflow",
    "ParameterSet",
    "ParseError",
    "PochhammerChain",
    "SeriesConfig",
    "SingularMatrix",
    "SingularShift",
    "UnknownIdentity",
    "VerificationReport",
    "catalog",
    "check_domain",
    "check_hypotheses",
    "commutator_norm",
    "eval_rhs",
    "evaluate",
    "evaluate_many",
    "frobenius_norm",
    "gamma_limit",
    "inverse",
    "is_invertible",
    "is_positive_stable",
    "mat_exp",
    "pochhammer",
    "pochhammer_inverse",
    "random_commuting_family",
    "run_campaign",
    "spectrum",
    "verify_identity",
    "__version__",
]

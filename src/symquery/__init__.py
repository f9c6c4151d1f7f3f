"""Exact quantum query algorithms for symmetric promise problems.

Submodules: ``symfun`` (weight-vector functions and families), ``polydeg``
(exact-rational degree certification), ``catalogue`` (the degree <= 2
families, re-exported by ``polydeg``), ``algos`` (query algorithms, branch
enumeration from exact subroutine laws, exactness verification),
``classical`` (deterministic query complexity), ``identities`` (binomial
determinant identity), ``cli`` (command line).  ``qsim``, the dense
state-vector simulator of the phase-oracle model, is the reference the tests
check the subroutine laws against; it is not imported here, and it loads
numpy only when one of its functions is called.
"""

from .algos import (
    AlgorithmRun,
    BranchTrace,
    UnsupportedParameters,
    VerificationReport,
    verify_exact,
)
from .classical import d_complexity
from .identities import binom_det, binom_det_closed, check_identity, helper_identity
from .polydeg import (
    FamilyKind,
    FamilyTag,
    FeasibilityResult,
    PolyV,
    check_representation,
    classify_deg2,
    degree,
    eval_poly_at_weight,
    lp_feasible,
    qe_lower_bound,
)
from .symfun import (
    SymPartialFn,
    domain_inputs,
    domain_size,
    family_dj,
    family_dw,
    family_f1,
    family_f2,
    family_f3,
    family_f4,
    family_named,
    from_string,
    is_isomorphic,
    isomorphs,
    value_at_weight,
)

__all__ = [
    "AlgorithmRun",
    "BranchTrace",
    "FamilyKind",
    "FamilyTag",
    "FeasibilityResult",
    "PolyV",
    "SymPartialFn",
    "UnsupportedParameters",
    "VerificationReport",
    "binom_det",
    "binom_det_closed",
    "check_identity",
    "check_representation",
    "classify_deg2",
    "d_complexity",
    "degree",
    "domain_inputs",
    "domain_size",
    "eval_poly_at_weight",
    "family_dj",
    "family_dw",
    "family_f1",
    "family_f2",
    "family_f3",
    "family_f4",
    "family_named",
    "from_string",
    "helper_identity",
    "is_isomorphic",
    "isomorphs",
    "lp_feasible",
    "qe_lower_bound",
    "value_at_weight",
    "verify_exact",
]

__version__ = "0.1.0"


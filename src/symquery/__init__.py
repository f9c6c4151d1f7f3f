"""Exact quantum query algorithms for symmetric promise problems.

Submodules: ``symfun`` (weight-vector functions and families), ``polydeg``
(exact-rational degree certification), ``catalogue`` (the degree <= 2
families, re-exported by ``polydeg``), ``algos`` (query algorithms, branch
enumeration from exact subroutine laws, exactness verification),
``classical`` (deterministic query complexity), ``identities`` (binomial
determinant identity), ``cli`` (command line), and ``qsim``, the dense
state-vector simulator of the phase-oracle model that the tests check the
subroutine laws against; it loads numpy only when one of its functions is
called.

Importing the package loads none of them: each public name below, and each
submodule, is imported on first access (PEP 562), so a command pays only
for the layers it runs.
"""

# each public name, and each submodule under its own name, to its submodule
_EXPORTS = {
    name: module
    for module, names in {
        "algos": "AlgorithmRun BranchTrace UnsupportedParameters VerificationReport verify_exact",
        "catalogue": "",
        "classical": "d_complexity",
        "cli": "",
        "identities": "binom_det binom_det_closed check_identity helper_identity",
        "polydeg": "FamilyKind FamilyTag FeasibilityResult PolyV check_representation classify_deg2 degree "
                   "eval_poly_at_weight lp_feasible qe_lower_bound",
        "qsim": "",
        "symfun": "SymPartialFn domain_inputs domain_size family_dj family_dw family_f1 family_f2 family_f3 "
                  "family_f4 family_named from_string is_isomorphic isomorphs value_at_weight",
    }.items()
    for name in [module, *names.split()]
}

__all__ = sorted(name for name, module in _EXPORTS.items() if name != module)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # the import statement's path, which -X importtime reports
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

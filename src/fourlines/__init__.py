"""Exact solver and proof-checking toolkit for the four-lines transversal
problem over totally positive configurations in RP^3.

Importing the package loads only ``fourlines.errors``.  Every other public
name is looked up in its submodule on first use (PEP 562), so a command
pays only for the modules it runs.
"""
from importlib import import_module

from .errors import (
    CertificateFailure,
    DegenerateConfiguration,
    DegenerateLine,
    DegeneratePencil,
    DimensionError,
    DomainError,
    FourLinesError,
    HypothesisViolation,
    InputError,
    NoRealSolution,
    NonGenericConfiguration,
    NotConvex,
    NotTotallyPositive,
    RadicandMismatch,
    SearchFailure,
    SingularMatrixError,
)

#: Public name -> the submodule that defines it.
_LAZY = {
    name: module
    for module, names in (
        ("exact", "IndexSet MatQ QuadNum"),
        ("poly", "Poly16 poly_equal"),
        ("totalpos", "CanonicalForm ConfigBlocks LWParams TPReport Y_SIGN blocks_of_canonical "
                     "canonicalize check_tp_config lw_compose lw_factor "
                     "random_tp_instance"),
        ("transversal", "BilinearForm LineRep Quadratic TransversalSolution bilinear_forms "
                        "discriminant_from_minors eliminate_to_quadratic oracle_plucker_solve "
                        "plucker_meet plucker_of_span solve_canonical solve_transversals"),
        ("identity", "IdentityCertificate printed_FGH symbolic_D symbolic_X verify_identity"),
        ("curves", "ConvexityReport CurveSpec SampleReport convexity_sample_check curve_eval "
                   "epsilon_threshold frenet_basis kappa_of lemma_sample schubert_count "
                   "tangent_block tangent_config"),
    )
    for name in names.split()
}

__version__ = "0.1.0"
#: The error classes imported above, then the lazy names.
__all__ = [name for name in globals() if name[0].isupper()] + list(_LAZY)


def __getattr__(name):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    if name in _LAZY.values():  # a submodule that the package used to import eagerly
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

"""Exact solver and proof-checking toolkit for the four-lines transversal
problem over totally positive configurations in RP^3.
"""

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
from .exact import IndexSet, MatQ, QuadNum, Rat, mat_det, mat_inverse, mat_minor, quad_arith
from .poly import Poly16, poly_add, poly_equal, poly_eval, poly_mul
from .totalpos import (
    CanonicalForm,
    ConfigBlocks,
    LWParams,
    TPReport,
    Y_SIGN,
    blocks_of_canonical,
    canonicalize,
    check_tp_config,
    check_tp_square,
    lw_compose,
    lw_factor,
    random_tp_instance,
)
from .transversal import (
    BilinearForm,
    LineRep,
    Quadratic,
    TransversalSolution,
    bilinear_forms,
    discriminant_from_minors,
    eliminate_to_quadratic,
    oracle_plucker_solve,
    plucker_meet,
    plucker_of_span,
    solve_canonical,
    solve_transversals,
)
from .identity import IdentityCertificate, printed_FGH, symbolic_D, symbolic_X, verify_identity
from .curves import (
    ConvexityReport,
    CurveSpec,
    SampleReport,
    convexity_sample_check,
    curve_eval,
    epsilon_threshold,
    frenet_basis,
    kappa_of,
    lemma_sample,
    schubert_count,
    tangent_block,
    tangent_config,
)

__version__ = "0.1.0"

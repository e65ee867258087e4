"""Computational library for the exceptional Jordan algebra.

3x3 Hermitian matrices over the octonions with the symmetrized product
A o B = (AB + BA)/2: octonion arithmetic, Jordan and Freudenthal products,
scalar invariants, the characteristic cubic, orthogonal primitive
idempotent decompositions, diagonalization by nested conjugations, a
24x24 real-symmetric cross-check oracle, and the null-momentum / rank-one
packing machinery for 2x2 blocks.
"""

from .config import Tolerances, tolerances
from .cubic import CubicRoots, solve_characteristic
from .dirac import (
    Hermitian2,
    PSquareClass,
    classify_psquare,
    dirac_solve,
    psi_pack,
)
from .exceptions import (
    AlbertError,
    ComplexRootsError,
    InconsistentError,
    NonAssociativeComponentsError,
    NonNullMomentumError,
    NotAnEigenvalueError,
    NotDoubleRootError,
    NotRankOneError,
    ZeroMatrixError,
    ZeroQMatrixError,
    ZeroVectorError,
)
from .f4 import DiagonalizationResult, build_m1_m2, diagonalize
from .jordan import (
    JordanMatrix,
    OctVector3,
    char_poly,
    det_via_trace,
    extract_vector,
    freudenthal_product,
    jordan_product,
    matvec,
    phase_align,
    rank1_from_vector,
    sandwich,
)
from .octonion import Octonion, associator, e, format_octonion
from .oracle import OracleReport, embed, modified_char_check
from .spectral import (
    SpectralDecomposition,
    decompose,
    double_root_split,
    idempotent_from_q,
    invariant_double_decomposition,
    q_matrix,
)
from .verify import CheckRow, VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "AlbertError",
    "CheckRow",
    "ComplexRootsError",
    "CubicRoots",
    "DiagonalizationResult",
    "Hermitian2",
    "InconsistentError",
    "JordanMatrix",
    "NonAssociativeComponentsError",
    "NonNullMomentumError",
    "NotAnEigenvalueError",
    "NotDoubleRootError",
    "NotRankOneError",
    "OctVector3",
    "Octonion",
    "OracleReport",
    "PSquareClass",
    "SpectralDecomposition",
    "Tolerances",
    "VerifyReport",
    "ZeroMatrixError",
    "ZeroQMatrixError",
    "ZeroVectorError",
    "associator",
    "build_m1_m2",
    "char_poly",
    "classify_psquare",
    "decompose",
    "det_via_trace",
    "diagonalize",
    "dirac_solve",
    "double_root_split",
    "e",
    "embed",
    "extract_vector",
    "format_octonion",
    "freudenthal_product",
    "idempotent_from_q",
    "invariant_double_decomposition",
    "jordan_product",
    "matvec",
    "modified_char_check",
    "phase_align",
    "psi_pack",
    "q_matrix",
    "rank1_from_vector",
    "run_verification",
    "sandwich",
    "solve_characteristic",
    "tolerances",
    "__version__",
]

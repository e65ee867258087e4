"""Computational library for the exceptional Jordan algebra.

3x3 Hermitian matrices over the octonions with the symmetrized product
A o B = (AB + BA)/2: octonion arithmetic, Jordan and Freudenthal products,
scalar invariants, the characteristic cubic, orthogonal primitive
idempotent decompositions, diagonalization by nested conjugations, a
24x24 real-symmetric cross-check oracle, and the null-momentum / rank-one
packing machinery for 2x2 blocks.

``import albert`` loads only :mod:`albert.config` (and with it numpy) and
:mod:`albert.exceptions`; every other public name imports its submodule on
first use, so a program pays only for the modules it runs.
"""

import importlib

from . import config, exceptions

__version__ = "0.1.0"

# Each submodule and the public names it exports.
_EXPORTS = {
    "cubic": ("CubicRoots", "solve_characteristic"),
    "dirac": ("Hermitian2", "PSquareClass", "classify_psquare", "dirac_solve", "psi_pack"),
    "exceptions": (
        "AlbertError", "ComplexRootsError", "InconsistentError",
        "NonAssociativeComponentsError", "NonNullMomentumError", "NotAnEigenvalueError",
        "NotDoubleRootError", "NotRankOneError", "ZeroMatrixError", "ZeroQMatrixError",
        "ZeroVectorError",
    ),
    "f4": ("DiagonalizationResult", "build_m1_m2", "diagonalize"),
    "jordan": (
        "JordanMatrix", "OctVector3", "char_poly", "extract_vector", "freudenthal_product",
        "jordan_product", "matvec", "phase_align", "rank1_from_vector", "sandwich",
    ),
    "octonion": ("Octonion", "associator", "e", "format_octonion"),
    "oracle": ("OracleReport", "embed", "modified_char_check"),
    "spectral": (
        "SpectralDecomposition", "decompose", "double_root_split", "idempotent_from_q", "q_matrix",
    ),
    "verify": ("CheckRow", "VerifyReport", "run_verification"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    # An unknown name raises AttributeError, so ``from albert import oracle``
    # falls back to importing the submodule.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Errors raised by the algebra routines.

Every package-specific failure derives from :class:`AlbertError`, so callers
can catch one base class.  Division by an (octonion) zero raises the built-in
``ZeroDivisionError`` instead, matching scalar Python semantics.
"""


class AlbertError(Exception):
    """Base class for all errors raised by this package."""


class NonAssociativeComponentsError(AlbertError):
    """Vector components do not associate, so v v-dagger is ill-defined."""


class NotRankOneError(AlbertError):
    """Matrix is not a rank-one projector candidate (V * V != 0)."""


class ZeroMatrixError(AlbertError):
    """Matrix has (near-)zero trace where a positive trace is required."""


class ComplexRootsError(AlbertError):
    """Characteristic polynomial has genuinely complex roots."""


class NotAnEigenvalueError(AlbertError):
    """Scalar is not a root of the characteristic polynomial."""


class ZeroQMatrixError(AlbertError):
    """Q matrix vanishes identically; the eigenvalue is repeated."""


class NotDoubleRootError(AlbertError):
    """Eigenvalue is not a double root of the characteristic polynomial."""


class InconsistentError(AlbertError):
    """Internally assembled result failed its own consistency checks."""


class ZeroVectorError(AlbertError):
    """Vector is (near-)zero where a nonzero vector is required."""


class NonNullMomentumError(AlbertError):
    """Two-by-two momentum matrix has nonzero determinant."""

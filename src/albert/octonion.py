"""Octonion arithmetic over an exact basis multiplication table.

The octonions are the eight-dimensional normed division algebra obtained by
Cayley-Dickson doubling of the quaternions.  Writing an octonion as a pair of
quaternions, the product convention used throughout this package is::

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

with the basis

    e0 = (1, 0)   e1 = (i, 0)   e2 = (j, 0)   e3 = (k, 0)
    e4 = (0, 1)   e5 = (0, i)   e6 = (0, j)   e7 = (0, k)

Every product of two basis elements is a signed basis element, so the full
table is integer-exact.  It is generated once at import time by applying
that formula to the basis and kept in the module constants ``MUL_SIGN``,
``MUL_INDEX`` and ``MUL_TENSOR``.  In this convention e1 e2 = e3 and
{1, e1, e2, e3} span a quaternionic subalgebra; e1 e4 = e5, e2 e4 = e6,
e3 e4 = e7.

The algebra is alternative but not associative: the associator
(x y) z - x (y z) vanishes whenever two arguments coincide, and the norm is
multiplicative, |x y| = |x| |y|.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Iterable

import numpy as np

from .config import tolerances

__all__ = [
    "Octonion",
    "MUL_SIGN",
    "MUL_INDEX",
    "MUL_TENSOR",
    "CONJ_SIGNS",
    "left_mult",
    "e",
    "associator",
    "format_octonion",
]


def _cayley_dickson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(a, b) (c, d) = (a c - conj(d) b, d a + b conj(c)) on (..., 8) arrays."""
    def qmul(p, q):  # Hamilton product (p0 q0 - p.q, p0 q + q0 p + p x q)
        p0, q0, pv, qv = p[..., :1], q[..., :1], p[..., 1:], q[..., 1:]
        return np.concatenate([p0 * q0 - (pv * qv).sum(-1, keepdims=True),
                               p0 * qv + q0 * pv + np.cross(pv, qv)], axis=-1)

    qconj = np.array([1.0, -1, -1, -1])
    a, b, c, d = x[..., :4], x[..., 4:], y[..., :4], y[..., 4:]
    return np.concatenate([qmul(a, c) - qmul(d * qconj, b),
                           qmul(d, a) + qmul(b, c * qconj)], axis=-1)


#: Dense structure constants, MUL_TENSOR[i, j, k] = coefficient of e_k in e_i e_j
#: (exact: products and sums of 0 and +-1; adding 0.0 clears negative zeros).
MUL_TENSOR = _cayley_dickson(np.eye(8)[:, None], np.eye(8)[None, :]) + 0.0

#: Signs and target indices of the basis table: e_i e_j = MUL_SIGN[i, j] * e_{MUL_INDEX[i, j]}.
MUL_INDEX = np.abs(MUL_TENSOR).argmax(axis=-1)
MUL_SIGN = MUL_TENSOR.sum(axis=-1).astype(np.int64)

#: Componentwise signs of conjugation: conj(x) flips e1..e7.
CONJ_SIGNS = np.array([1.0, -1, -1, -1, -1, -1, -1, -1])

_MUL_FLAT = MUL_TENSOR.reshape(8, 64)


def _is_real(x) -> bool:
    return type(x) is float or isinstance(x, Real)  # the ABC check is slow


def left_mult(x: np.ndarray) -> np.ndarray:
    """Left-multiplication matrices L, (..., 8, 8), of x, (..., 8): L @ y = x y.

    The one product kernel: octonion, matrix-vector and Jordan products.
    """
    return (x @ _MUL_FLAT).reshape(x.shape[:-1] + (8, 8)).swapaxes(-1, -2)


class _ArrayValue:
    """Immutable value stored as one read-only float array; equal when the
    difference has Frobenius norm ``<= atol + rtol * max(|x|, |y|)``."""

    __slots__ = ("_arr",)

    def __init__(self, arr: np.ndarray):
        arr.flags.writeable = False
        object.__setattr__(self, "_arr", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray):
        """Adopt an array the package computed: no copy, no check."""
        obj = object.__new__(cls)
        _ArrayValue.__init__(obj, arr)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def to_array(self) -> np.ndarray:
        return self._arr.copy()

    def norm(self) -> float:
        """Frobenius norm; a Jordan matrix counts each off-diagonal octonion twice."""
        return math.sqrt(float(np.vdot(self._arr, self._arr)))

    def isclose(self, other, atol=None, rtol=None) -> bool:
        atol = tolerances.atol if atol is None else atol
        rtol = tolerances.rtol if rtol is None else rtol
        diff = float(np.linalg.norm(self._arr - other._arr))
        return diff <= atol + rtol * max(self.norm(), other.norm())

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.isclose(other)

    __hash__ = None


class Octonion(_ArrayValue):
    """An octonion stored as eight real coefficients on e0..e7.

    The coefficient array is frozen after construction.  Arithmetic accepts
    real scalars wherever another octonion would do, treating them as real
    multiples of e0.  Equality is tolerance-based via the global config.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[float]):
        arr = np.array(coeffs, dtype=float)
        if arr.shape != (8,):
            raise ValueError(f"octonion needs 8 coefficients, got shape {arr.shape}")
        super().__init__(arr)

    coeffs = property(lambda self: self._arr, doc="The read-only coefficients on e0..e7.")

    @classmethod
    def from_real(cls, x: float) -> "Octonion":
        arr = np.zeros(8)
        arr[0] = x
        return cls(arr)

    @classmethod
    def zero(cls) -> "Octonion":
        return cls(np.zeros(8))

    @classmethod
    def basis(cls, k: int) -> "Octonion":
        if not 0 <= k <= 7:
            raise ValueError(f"basis index must be in 0..7, got {k}")
        arr = np.zeros(8)
        arr[k] = 1.0
        return cls(arr)

    # -- structure ---------------------------------------------------------

    @property
    def real(self) -> float:
        return float(self.coeffs[0])

    def conjugate(self) -> "Octonion":
        return Octonion(self.coeffs * CONJ_SIGNS)

    def norm2(self) -> float:
        """Squared norm, x conj(x) = sum of squared coefficients."""
        return float(self.coeffs @ self.coeffs)

    def inverse(self) -> "Octonion":
        n2 = self.norm2()
        if n2 <= tolerances.atol:
            raise ZeroDivisionError("octonion has (near-)zero norm")
        return Octonion(self.coeffs * CONJ_SIGNS / n2)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Octonion | None":
        if isinstance(other, Octonion):
            return other
        if _is_real(other):
            return Octonion.from_real(float(other))
        return None

    def __add__(self, other) -> "Octonion":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Octonion(self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other) -> "Octonion":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Octonion(self.coeffs - o.coeffs)

    def __rsub__(self, other) -> "Octonion":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Octonion(o.coeffs - self.coeffs)

    def __neg__(self) -> "Octonion":
        return Octonion(-self.coeffs)

    def __mul__(self, other) -> "Octonion":
        if isinstance(other, Octonion):
            return Octonion(left_mult(self.coeffs) @ other.coeffs)
        if _is_real(other):
            return Octonion(self.coeffs * float(other))
        return NotImplemented

    def __rmul__(self, other) -> "Octonion":
        if _is_real(other):
            return Octonion(self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other) -> "Octonion":
        if _is_real(other):
            return Octonion(self.coeffs / float(other))
        if isinstance(other, Octonion):
            return self * other.inverse()
        return NotImplemented

    # -- comparison and display --------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.isclose(o)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Octonion({format_octonion(self)})"

    def __str__(self) -> str:
        return format_octonion(self)


def e(k: int) -> Octonion:
    """The k-th basis octonion (e0 is the identity)."""
    return Octonion.basis(k)


def associator(x: Octonion, y: Octonion, z: Octonion) -> Octonion:
    """(x y) z - x (y z); zero iff the triple associates."""
    return (x * y) * z - x * (y * z)


def format_octonion(x: Octonion, fmt: str = "%.12g") -> str:
    """Render as 'c0 + c1 e1 + ...' suppressing zero terms."""
    parts = []
    for k, c in enumerate(x.coeffs):
        if c == 0.0:
            continue
        mag = fmt % abs(c)
        term = mag if k == 0 else f"{mag} e{k}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"

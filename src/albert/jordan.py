"""The Albert algebra: 3x3 octonionic Hermitian matrices.

A matrix in this algebra is parameterised by three real diagonal entries and
three octonions::

        [ p        a        conj(b) ]
    A = [ conj(a)  m        c       ]
        [ b        conj(c)  n       ]

Products of Hermitian matrices are not Hermitian in general, so the algebra
carries the symmetrised Jordan product A o B = (AB + BA) / 2 and the
Freudenthal cross product

    A * B = A o B - (A tr B + B tr A) / 2 + (tr A tr B - tr(A o B)) / 2 I.

Together with the trace these give the three basic invariants: tr A, the
quadratic sigma(A) = (tr A)^2 / 2 - tr(A^2) / 2 = tr(A * A), and the cubic
determinant.  Every matrix satisfies its characteristic equation

    A^3 - (tr A) A^2 + sigma(A) A - (det A) I = 0

with A^3 = A^2 o A, and the determinant obeys Springer's composition rule
(A * A) * (A * A) = (det A) A.

Rank-one matrices v v-dagger built from a 3-vector of octonions play the role
of projectors: V = v v-dagger satisfies V * V = 0, and when tr V = 1 it is a
primitive idempotent (a point of the Cayley plane).  The construction is only
consistent when the components of v associate, which is why
:func:`rank1_from_vector` checks their associator.

Storage: a :class:`JordanMatrix` is one read-only vector (27,) of the
real Hermitian coordinates (p, m, n, a, b, c), the diagonal followed by the
eight coefficients of each of a, b and c; ``p, m, n, a, b, c`` read slices
of it.  An :class:`OctVector3` is one (3, 8) array.  The (3, 3, 8) array of
octonion entries exists only in this module: ``to_array`` and
``from_array`` convert to and from it (:func:`_unpack`, :func:`_pack`), and
the ordinary octonionic matrix product, the 24x24 real matrix of the left
factor (:func:`_embed`, on :func:`albert.octonion.left_mult`) times the
columns of the right one (:func:`_raw_mul`), runs on it, for
:func:`sandwich`, :func:`matvec`, the real oracle and the build of the
structure tensors.  Both products are bilinear in the coordinates: with an
exact structure tensor T, (27, 27, 27) stored as (27, 729), whose slices
are the products of basis pairs, x o y is ``y @ L(x)`` for the 27x27 matrix
``L(x) = (x @ T).reshape(27, 27)`` (:func:`_op`, :func:`_mul`), and x * y
the same with the Freudenthal tensor.  :func:`_structure_tensors` builds
both from one stacked product of all 729 basis pairs, at most once per
process, on the first product; ``_JORDAN`` and ``_FREUDENTHAL`` are their
indices in its result.  Code that never multiplies (the invariants, the
oracle, the 2x2 factor) never builds them.  Norms weight each off-diagonal
coordinate by sqrt(2) (:func:`_frob`), which gives the Frobenius norm of
the (3, 3, 8) form.  A stack (..., 27) of
coordinates takes every kernel at once, a single factor broadcasting
against a stack.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import RTOL, _bound, _rescale, _unit_scale
from .exceptions import (
    InconsistentError,
    NonAssociativeComponentsError,
    NotRankOneError,
    ZeroMatrixError,
)
from .octonion import (
    _TINY,
    CONJ_SIGNS,
    Octonion,
    _ArrayValue,
    _as_octonion,
    _associator,
    _finite,
    _norm,
    left_mult,
)

__all__ = [
    "JordanMatrix",
    "OctVector3",
    "jordan_product",
    "freudenthal_product",
    "char_poly",
    "matvec",
    "sandwich",
    "rank1_from_vector",
    "extract_vector",
    "phase_align",
]

# Rows of a (3, 3, 8) array seen as (9, 8): a = (0, 1), b = (2, 0), c = (1, 2)
# and their conjugate mirrors.
_UPPER_ROWS = np.array([1, 6, 5])
_LOWER_ROWS = np.array([3, 2, 7])

# The 27 Hermitian coordinates p, m, n, a, b, c: their flat positions among
# the 72 coefficients of a (3, 3, 8) array, and the exact 0/+-1 matrix that
# writes the 72 coefficients from them, the lower entries conjugating a, b, c.
_PACK = np.concatenate(([0, 32, 64], (8 * _UPPER_ROWS[:, None] + np.arange(8)).ravel()))
_UNPACK = np.zeros((27, 9, 8))
_UNPACK[[0, 1, 2], [0, 4, 8], 0] = 1.0
_UNPACK[3:, _UPPER_ROWS] = np.eye(24).reshape(24, 3, 8)
_UNPACK[3:, _LOWER_ROWS] = _UNPACK[3:, _UPPER_ROWS] * CONJ_SIGNS
_UNPACK = _UNPACK.reshape(27, 72)

# _UNPACK by column of the (3, 3, 8) array: h @ _COLUMNS[k] is column k, (24,).
_COLUMNS = _UNPACK.reshape(27, 3, 3, 8).transpose(2, 0, 1, 3).reshape(3, 27, 24)

#: The identity in Hermitian coordinates; x @ _UNIT is tr x.
_UNIT = np.concatenate((np.ones(3), np.zeros(24)))

# Weights that count each off-diagonal coordinate twice in a sum of squares.
_FROB_WEIGHTS = np.concatenate((np.ones(3), np.full(24, math.sqrt(2.0))))


def _pack(arr: np.ndarray) -> np.ndarray:
    """Hermitian coordinates (..., 27) of (..., 3, 3, 8) Hermitian arrays."""
    return arr.reshape(arr.shape[:-3] + (72,))[..., _PACK]


def _unpack(h: np.ndarray) -> np.ndarray:
    """(..., 3, 3, 8) Hermitian arrays of coordinates (..., 27), exactly."""
    return (h @ _UNPACK).reshape(h.shape[:-1] + (3, 3, 8))


def _frob(h: np.ndarray) -> np.ndarray:
    """Coordinates weighted so that their Euclidean norm (``octonion._norm``)
    is the Frobenius norm of the (3, 3, 8) form."""
    return h * _FROB_WEIGHTS


def _trace(h: np.ndarray):
    """tr of coordinates (..., 27): p + m + n, added in that order."""
    return h[..., 0] + h[..., 1] + h[..., 2]


def _conj_transpose(arr: np.ndarray) -> np.ndarray:
    """Conjugate transpose of (..., 3, 3, 8) octonion coefficients."""
    return arr.swapaxes(-3, -2) * CONJ_SIGNS


def _hermitian_part(arr: np.ndarray) -> np.ndarray:
    """Coordinates (..., 27) of the Hermitian part of (..., 3, 3, 8) arrays."""
    return _pack((arr + _conj_transpose(arr)) / 2.0)


def _embed(arr: np.ndarray) -> np.ndarray:
    """(..., 24, 24) real matrices of v -> X v, X in arr (..., 3, 3, 8), slot-major."""
    return left_mult(arr).swapaxes(-3, -2).reshape(arr.shape[:-3] + (24, 24))


def _raw_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ordinary (non-Hermitian) products of (..., 3, 3, 8) octonion matrices."""
    cols = y.swapaxes(-2, -1).reshape(y.shape[:-3] + (24, 3))
    prod = _embed(x) @ cols
    return prod.reshape(prod.shape[:-2] + (3, 8, 3)).swapaxes(-2, -1)


@functools.cache
def _structure_tensors() -> tuple[np.ndarray, np.ndarray]:
    """The Jordan and Freudenthal products of the 27 x 27 basis pairs, as
    (27, 729) tensors: one stacked matrix product, exact, since every
    coefficient is 0, +-1/2 or +-1.  Built on the first call only."""
    basis = _unpack(np.eye(27))
    circ = _hermitian_part(_raw_mul(basis[:, None], basis[None, :]))
    # x * y = x o y - (x tr y + y tr x) / 2 + (tr x tr y - tr(x o y)) / 2 I
    tr, eye = _UNIT, np.eye(27)
    cross = (circ - (eye[:, None] * tr[None, :, None] + eye[None, :] * tr[:, None, None]) / 2.0
             + ((np.outer(tr, tr) - circ @ tr) / 2.0)[..., None] * tr)
    tensors = circ.reshape(27, 729), cross.reshape(27, 729)
    for tensor in tensors:  # one copy serves every caller
        tensor.flags.writeable = False
    return tensors


# Indices of the two tensors in ``_structure_tensors()``.
_JORDAN, _FREUDENTHAL = 0, 1


def _op(x: np.ndarray, tensor: int = _JORDAN) -> np.ndarray:
    """L(x), (..., 27, 27), of coordinates x, (..., 27): y @ L(x) is the
    product of x and y whose structure tensor is ``_structure_tensors()[tensor]``."""
    return (x @ _structure_tensors()[tensor]).reshape(x.shape[:-1] + (27, 27))


def _apply(y: np.ndarray, L: np.ndarray) -> np.ndarray:
    """y @ L for coordinates y (..., 27) and matrices L (..., 27, 27), summed
    in a fixed order: a BLAS vector-matrix product sums in an order that
    depends on memory alignment, so its bits would vary from call to call.
    (``_op`` needs no such care: each entry of L(x) has at most two terms.)"""
    return np.einsum("...j,...jk->...k", y, L)


def _mul(x: np.ndarray, y: np.ndarray, tensor: int = _JORDAN) -> np.ndarray:
    """x o y, or x * y with ``tensor=_FREUDENTHAL``, on coordinates (..., 27)."""
    return _apply(y, _op(x, tensor))


def _quadratic(h: np.ndarray):
    """The diagonal [p, m, n], the rows a, b, c, their squared norms and
    sigma(A) of the coordinates h, (27,), of A, its entries read once."""
    upper = h[3:].reshape(3, 8)
    na, nb, nc = norms = (upper * upper).sum(axis=1).tolist()
    diag = h[:3].tolist()
    p, m, n = diag
    return diag, upper, norms, p * m + m * n + p * n - na - nb - nc


def _invariants(h: np.ndarray, lams=0.0):
    """tr A, sigma(A) and det(A - lambda I) of the coordinates h of A, its
    entries read once.  det is a float for a float lambda, a list of floats
    for a list or tuple of them and an array for an array, each lambda's bits
    those of its float call: the off-diagonal terms are computed once, only
    the diagonal shifts."""
    diag, (a, b, c), (na, nb, nc), sigma = _quadratic(h)
    re_bac2 = 2.0 * float((b * CONJ_SIGNS) @ (left_mult(a) @ c))
    p0, m0, n0 = diag

    def det(lam):
        p, m, n = p0 - lam, m0 - lam, n0 - lam
        return p * m * n + re_bac2 - n * na - m * nb - p * nc

    dets = [det(lam) for lam in lams] if isinstance(lams, (list, tuple)) else det(lams)
    return p0 + m0 + n0, sigma, dets


class OctVector3(_ArrayValue):
    """A column vector of three octonions, stored as one (3, 8) array."""

    __slots__ = ()

    def __init__(self, components):
        arr = np.array([_as_octonion(c).coeffs for c in components])
        if arr.shape != (3, 8):
            raise ValueError("vector needs exactly 3 components")
        super().__init__(arr)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "OctVector3":
        arr = np.array(arr, dtype=float)
        if arr.shape != (3, 8):
            raise ValueError(f"expected shape (3, 8), got {arr.shape}")
        return cls._wrap(_finite(arr))

    @property
    def components(self) -> tuple[Octonion, Octonion, Octonion]:
        return tuple(Octonion(row) for row in self._arr)

    def __getitem__(self, i: int) -> Octonion:
        return Octonion(self._arr[i])

    def __iter__(self):
        return iter(self.components)

    def dagger_dot(self, other: "OctVector3") -> Octonion:
        """v-dagger w = sum_i conj(v_i) w_i."""
        terms = left_mult(self._arr * CONJ_SIGNS) @ other._arr[:, :, None]
        return Octonion(terms.sum(axis=0)[:, 0])

    def norm2(self) -> float:
        """v-dagger v, always real and non-negative."""
        return float(np.vdot(self._arr, self._arr))

    def __mul__(self, other) -> "OctVector3":
        if isinstance(other, Octonion):
            # right multiplication of each component: (v_i q)_k = L(v_i)[k, j] q_j
            return OctVector3._wrap(left_mult(self._arr) @ other.coeffs)
        return super().__mul__(other)

    def to_list(self) -> list[list[float]]:
        return self._arr.tolist()

    def __repr__(self) -> str:
        return f"OctVector3(({', '.join(map(str, self.components))}))"


class JordanMatrix(_ArrayValue):
    """Element of the Albert algebra in the (p, m, n; a, b, c) layout.

    Immutable; stored as one read-only vector of its 27 Hermitian coordinates.
    """

    __slots__ = ()

    def __init__(self, p=0.0, m=0.0, n=0.0, a=None, b=None, c=None):
        h = np.zeros(27)
        h[:3] = float(p), float(m), float(n)
        for row, x in zip(h[3:].reshape(3, 8), (a, b, c)):
            if x is not None:
                row[:] = _as_octonion(x).coeffs
        super().__init__(_finite(h))

    # -- entries -------------------------------------------------------------

    p = property(lambda self: float(self._arr[0]))
    m = property(lambda self: float(self._arr[1]))
    n = property(lambda self: float(self._arr[2]))
    a = property(lambda self: Octonion._wrap(self._arr[3:11]))
    b = property(lambda self: Octonion._wrap(self._arr[11:19]))
    c = property(lambda self: Octonion._wrap(self._arr[19:]))

    # -- constructors --------------------------------------------------------

    @classmethod
    def diag(cls, p: float, m: float, n: float) -> "JordanMatrix":
        return cls(p=p, m=m, n=n)

    @classmethod
    def identity(cls) -> "JordanMatrix":
        return _IDENTITY

    @classmethod
    def zero(cls) -> "JordanMatrix":
        return cls()

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "JordanMatrix":
        """Build from a (3, 3, 8) coefficient array, symmetrising rounding noise.

        The array must be Hermitian to tolerance, decided on arr / 2^e at
        unit scale, so 2^k arr gets the answer arr gets.  Entries must be
        finite.
        """
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (3, 3, 8):
            raise ValueError(f"expected shape (3, 3, 8), got {arr.shape}")
        (u,), e = _unit_scale((_finite(arr), 1))
        if _norm(u - _conj_transpose(u)) > _bound(_norm(u)):
            raise ValueError("array is not Hermitian")
        return cls._wrap(*_rescale(e, (_hermitian_part(u), 1)))

    def to_array(self) -> np.ndarray:
        """The (3, 3, 8) array of octonion entries, a new array."""
        return _unpack(self._arr)

    # -- invariants ----------------------------------------------------------

    def norm(self) -> float:
        """Frobenius norm of the (3, 3, 8) array: off-diagonal octonions count twice."""
        return _norm(_frob(self._arr))

    def trace(self) -> float:
        return float(_trace(self._arr))

    def sigma(self) -> float:
        """Sum of the pairwise eigenvalue products, tr(A * A), as
        :func:`char_poly` gives it: +/-inf, never NaN, out of range."""
        return char_poly(self)[1]

    def det(self) -> float:
        """Cubic norm: p m n + 2 Re(b (a c)) - n |a|^2 - m |b|^2 - p |c|^2,
        as :func:`char_poly` gives it: +/-inf, never NaN, out of range."""
        return char_poly(self)[2]

    def trace_reversal(self) -> "JordanMatrix":
        """A - (tr A) I, the involution entering the determinant identities."""
        h = self._arr.copy()
        h[:3] -= self.trace()
        return JordanMatrix._wrap(h)

    def offdiag_norm(self) -> float:
        """Frobenius norm of the off-diagonal entries, each counted twice,
        computed on A / 2^e and multiplied back by 2^e."""
        (h,), e = _unit_scale((self._arr, 1))
        return _rescale(e, (math.sqrt(2.0 * sum(_quadratic(h)[2])), 1))[0]

    def diagonal(self) -> tuple[float, float, float]:
        return tuple(self._arr[:3].tolist())

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        (p, m, n), (a, b, c), _, _ = _quadratic(self._arr)
        return {"p": p, "m": m, "n": n, "a": a.tolist(), "b": b.tolist(), "c": c.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "JordanMatrix":
        try:
            return cls(float(data["p"]), float(data["m"]), float(data["n"]),
                       *(np.asarray(data[k], dtype=float) for k in "abc"))
        except KeyError as exc:
            raise ValueError(f"invalid Jordan matrix payload: missing key {exc}") from exc
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid Jordan matrix payload: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"JordanMatrix(p={self.p:.6g}, m={self.m:.6g}, n={self.n:.6g}, "
            f"a={self.a}, b={self.b}, c={self.c})"
        )


_IDENTITY = JordanMatrix(1.0, 1.0, 1.0)


# -- products ----------------------------------------------------------------


def _product(A: JordanMatrix, B: JordanMatrix, tensor: int) -> JordanMatrix:
    """A and B each divided by its own 2^e, multiplied there, and the product
    multiplied back by 2^(e_A + e_B), exactly: a product that leaves the
    double range raises :class:`InconsistentError` instead of turning into
    inf - inf = NaN."""
    (a,), ea = _unit_scale((A._arr, 1))
    (b,), eb = _unit_scale((B._arr, 1))
    return JordanMatrix._wrap(*_rescale(ea + eb, (_mul(a, b, tensor), 1)))


def jordan_product(A: JordanMatrix, B: JordanMatrix) -> JordanMatrix:
    """(A B + B A) / 2.  Commutative, non-associative."""
    return _product(A, B, _JORDAN)


def freudenthal_product(A: JordanMatrix, B: JordanMatrix) -> JordanMatrix:
    """The symmetric cross product whose trace recovers sigma and det."""
    return _product(A, B, _FREUDENTHAL)


def char_poly(A: JordanMatrix) -> tuple[float, float, float]:
    """Coefficients (tr A, sigma(A), det A) of t^3 - tr t^2 + sigma t - det.

    Computed on A / 2^e and multiplied back by 2^e, 2^2e and 2^3e, which is
    exact; a coefficient outside the double range becomes +/-inf, never NaN,
    and :func:`albert.cubic.solve_characteristic` rejects it.  ``sigma()``
    and ``det()`` read them here, the one path off unit scale.
    """
    (a,), e = _unit_scale((A._arr, 1))
    poly = _invariants(a)
    if e == 0:
        return poly
    return tuple(_ldexp_or_inf(x, d * e) for x, d in zip(poly, (1, 2, 3)))


def _ldexp_or_inf(x: float, k: int) -> float:
    """``math.ldexp(x, k)``, or +/-inf where that overflows."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def matvec(A: JordanMatrix, v: OctVector3) -> OctVector3:
    """Ordinary matrix-vector product with octonion entries."""
    return OctVector3._wrap((_embed(_unpack(A._arr)) @ v._arr.reshape(24)).reshape(3, 8))


def sandwich(M: JordanMatrix, A: JordanMatrix) -> JordanMatrix:
    """The nested conjugate M (A M) = (M A) M.

    The two bracketings agree because the entries of M lie in a single
    complex subalgebra, which makes the product flexible; the result is
    Hermitian again when M is.  Computed from the ordinary products, as the
    Hermitian part of (M A) M, so it assumes nothing of M.
    """
    M = _unpack(M._arr)
    return JordanMatrix._wrap(_hermitian_part(_raw_mul(_raw_mul(M, _unpack(A._arr)), M)))


# -- rank-one projectors -------------------------------------------------------


def _outer(u: np.ndarray, e: int) -> np.ndarray:
    """v v-dagger of v = 2^e u, u a (3, 8) array at unit scale, entry by
    entry, a = v1 conj(v2), b = v3 conj(v1), c = v2 conj(v3): no bracketing
    of three components.  Formed on u and multiplied back by 2^2e; raises
    :class:`InconsistentError` when |v|^2 leaves the normal double range,
    upward (in ``_rescale``) or downward."""
    left, right = u[[0, 2, 1]], u[[1, 0, 2]] * CONJ_SIGNS
    upper = (left_mult(left) @ right[:, :, None])[:, :, 0]
    h = np.concatenate((np.einsum("ij,ij->i", u, u), upper.ravel()))
    (V,) = _rescale(e, (h, 2))
    n2 = h[0] + h[1] + h[2]
    if e < 0 and n2 and math.ldexp(n2, 2 * e) < _TINY:
        raise InconsistentError(f"|v|^2 underflows the double range at scale 2^{e}")
    return V


def rank1_from_vector(v: OctVector3) -> JordanMatrix:
    """v v-dagger as a Jordan matrix, formed on v / 2^e and multiplied back
    by 2^2e.

    The components of v must associate (their associator must vanish to
    tolerance, at unit scale), otherwise the result would not satisfy
    V * V = 0.  A nonzero v whose |v|^2 overflows, or underflows below the
    smallest normal double, raises :class:`InconsistentError`.
    """
    (u,), e = _unit_scale((v._arr, 1))
    assoc, scale = _norm(_associator(*u)), math.prod(map(_norm, u))
    if assoc > _bound(scale):
        raise NonAssociativeComponentsError(
            f"components do not associate (|[v1,v2,v3]| / (|v1| |v2| |v3|) = {assoc / scale:.3e})"
        )
    return JordanMatrix._wrap(_outer(u, e))


def extract_vector(V: JordanMatrix) -> OctVector3:
    """Recover v with v v-dagger = V from a rank-one matrix.

    The pivot is the largest diagonal entry (smallest index on ties) and the
    returned vector is the pivot column scaled by 1/sqrt(V_kk), so its pivot
    component is the positive real sqrt(V_kk).  v is unique up to a
    quaternionic phase.  V has degree two in v, so it is brought to unit
    scale by an even power of two and v takes half of it.  The rank-one gate
    on |V * V| is ``ATOL + RTOL * |V|^2`` (:mod:`albert.config`).
    """
    (v,), e = _unit_scale((V._arr, 2))
    return OctVector3._wrap(*_rescale(e, (_extract(v, RTOL)[0], 1)))


def _extract(V: np.ndarray, rank_rtol: float) -> np.ndarray:
    """:func:`extract_vector` on (27,) or (k, 27), giving (k, 3, 8), with the
    rank-one gate ``ATOL + rank_rtol * |V|^2``."""
    V = V.reshape(-1, 27)
    VxV = _mul(V, V, _FREUDENTHAL)
    out = np.empty((len(V), 3, 8))
    for i, (nrm, vxv, diag) in enumerate(zip(map(_norm, _frob(V)), map(_norm, _frob(VxV)),
                                             V[:, :3].tolist())):
        if vxv > _bound(nrm * nrm, rank_rtol):
            raise NotRankOneError(
                f"V * V does not vanish (|V*V| / |V|^2 = {vxv / (nrm * nrm):.3e})"
            )
        tr = diag[0] + diag[1] + diag[2]
        if tr <= _bound(nrm):
            raise ZeroMatrixError("trace is not positive")
        out[i] = _pivot_column(V[i])
    return out


def _pivot_column(h: np.ndarray) -> np.ndarray:
    """v with v v-dagger = h for rank-one coordinates h, by the pivot rule of
    :func:`extract_vector`, as a (3, 8) array."""
    diag = h[:3].tolist()
    pivot = max(diag)
    if pivot <= 0.0:
        raise ZeroMatrixError("no positive diagonal entry to pivot on")
    k, root = diag.index(pivot), math.sqrt(pivot)
    v = (h @ _COLUMNS[k]).reshape(3, 8) / root
    v[k, 0] = root  # correctly rounded, not h_kk / sqrt(h_kk)
    return v


def phase_align(v: OctVector3) -> OctVector3:
    """Right-multiply by a unit phase so the third component is real >= 0.

    The phase lies in the subalgebra spanned by the components, so
    v v-dagger is unchanged.  A vector whose third component vanishes to
    tolerance at scale |v|, decided on v / 2^e, is returned as-is.
    """
    (u,), e = _unit_scale((v._arr, 1))
    return OctVector3._wrap(*_rescale(e, (_phase_align(u), 1)))


def _phase_align(u: np.ndarray) -> np.ndarray:
    """:func:`phase_align` of a (3, 8) array at unit scale."""
    r = u[2]
    rn = _norm(r)
    if rn <= _bound(_norm(u)):
        return u
    return left_mult(u) @ (r * CONJ_SIGNS * (1.0 / rn))

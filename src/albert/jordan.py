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

Storage: a :class:`JordanMatrix` is one read-only Hermitian (3, 3, 8) array
(``to_array`` copies it; ``p, m, n, a, b, c`` are computed on read), an
:class:`OctVector3` one (3, 8) array.  A matrix product is the 24x24 real
matrix of the left factor (:func:`albert.octonion.left_mult`) times the
columns of the right one.  The private array kernels (``_jordan``,
``_freudenthal``, ``_trace``, ...) take one (3, 3, 8) array or a stack
(..., 3, 3, 8), a single factor broadcasting against a stack; they read and
write the real diagonal as flat positions ::32 of the 72 coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .config import _rescale, _unit_scale, tolerances
from .exceptions import (
    NonAssociativeComponentsError,
    NotRankOneError,
    ZeroMatrixError,
)
from .octonion import (
    CONJ_SIGNS,
    Octonion,
    _ArrayValue,
    _as_octonion,
    _associator,
    _norm,
    left_mult,
)

__all__ = [
    "JordanMatrix",
    "OctVector3",
    "jordan_product",
    "freudenthal_product",
    "char_poly",
    "det_via_trace",
    "matvec",
    "sandwich",
    "rank1_from_vector",
    "extract_vector",
    "offdiag_associator",
    "phase_align",
]

# Rows of a (3, 3, 8) array seen as (9, 8): a = (0, 1), b = (2, 0), c = (1, 2)
# and their conjugate mirrors.  The diagonal is rows 0, 4, 8: the slice [::4].
_UPPER_ROWS = np.array([1, 6, 5])
_LOWER_ROWS = np.array([3, 2, 7])


def _hermitian(diag, upper: np.ndarray) -> np.ndarray:
    """(3, 3, 8) Hermitian array from three reals and the rows a, b, c."""
    rows = np.zeros((9, 8))
    rows[::4, 0] = diag
    rows[_UPPER_ROWS] = upper
    rows[_LOWER_ROWS] = upper * CONJ_SIGNS
    return rows.reshape(3, 3, 8)


def _diag(arr: np.ndarray) -> np.ndarray:
    """The real diagonal, (..., 3); a view when ``arr`` is contiguous."""
    return arr.reshape(arr.shape[:-3] + (72,))[..., ::32]


def _trace(arr: np.ndarray):
    d = _diag(arr).T
    return d[0] + d[1] + d[2]


def _conj_transpose(arr: np.ndarray) -> np.ndarray:
    """Conjugate transpose of (..., 3, 3, 8) octonion coefficients."""
    return arr.swapaxes(-3, -2) * CONJ_SIGNS


def _hermitian_part(arr: np.ndarray) -> np.ndarray:
    return (arr + _conj_transpose(arr)) / 2.0


def _embed(arr: np.ndarray) -> np.ndarray:
    """(..., 24, 24) real matrices of v -> X v for X in arr, slot-major."""
    return left_mult(arr).swapaxes(-3, -2).reshape(arr.shape[:-3] + (24, 24))


def _raw_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ordinary (non-Hermitian) products of (..., 3, 3, 8) octonion matrices."""
    cols = y.swapaxes(-2, -1).reshape(y.shape[:-3] + (24, 3))
    prod = _embed(x) @ cols
    return prod.reshape(prod.shape[:-2] + (3, 8, 3)).swapaxes(-2, -1)


def _jordan(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Y X is the conjugate transpose of X Y for Hermitian factors.
    return _hermitian_part(_raw_mul(x, y))


def _freudenthal(x: np.ndarray, y: np.ndarray, circ: np.ndarray | None = None) -> np.ndarray:
    circ = _jordan(x, y) if circ is None else circ  # x o y, when the caller holds it
    tx = _trace(x)
    if y is x:  # the square: (x tr x + x tr x) / 2 is x tr x exactly
        ty, out = tx, circ - x * tx[..., None, None, None]
    else:
        ty = _trace(y)
        out = circ - (y * tx[..., None, None, None] + x * ty[..., None, None, None]) * 0.5
    d = _diag(out)
    d += ((tx * ty - _trace(circ)) / 2.0)[..., None]
    return out


def _quadratic(arr: np.ndarray):
    """The diagonal [p, m, n], the rows a, b, c, their squared norms and
    sigma(A) of the (3, 3, 8) array A, its entries read once."""
    upper = arr.reshape(9, 8).take(_UPPER_ROWS, axis=0)
    na, nb, nc = norms = (upper * upper).sum(axis=1).tolist()
    diag = _diag(arr).tolist()
    p, m, n = diag
    return diag, upper, norms, p * m + m * n + p * n - na - nb - nc


def _invariants(arr: np.ndarray, lams=0.0):
    """tr A, sigma(A) and det(A - lambda I) of the (3, 3, 8) array A, its entries
    read once.  det is a float for a float lambda, a list of floats for a list
    or tuple of them and an array for an array, each lambda's bits those of its
    float call: the off-diagonal terms are computed once, only the diagonal
    shifts."""
    diag, (a, b, c), (na, nb, nc), sigma = _quadratic(arr)
    re_bac2 = 2.0 * float((b * CONJ_SIGNS) @ (left_mult(a) @ c))
    p0, m0, n0 = diag

    def det(lam):
        p, m, n = p0 - lam, m0 - lam, n0 - lam
        return p * m * n + re_bac2 - n * na - m * nb - p * nc

    dets = [det(lam) for lam in lams] if isinstance(lams, (list, tuple)) else det(lams)
    return p0 + m0 + n0, sigma, dets


def _det_shifted(arr: np.ndarray, lams):
    return _invariants(arr, lams)[2]


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
        return cls._wrap(arr)

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

    Immutable; stored as one read-only Hermitian (3, 3, 8) array.
    """

    __slots__ = ()

    def __init__(self, p=0.0, m=0.0, n=0.0, a=None, b=None, c=None):
        upper = np.zeros((3, 8))
        for row, x in zip(upper, (a, b, c)):
            if x is not None:
                row[:] = _as_octonion(x).coeffs
        arr = _hermitian((float(p), float(m), float(n)), upper)
        if not np.isfinite(arr).all():
            raise ValueError("entries must be finite")
        super().__init__(arr)

    # -- entries -------------------------------------------------------------

    p = property(lambda self: float(self._arr[0, 0, 0]))
    m = property(lambda self: float(self._arr[1, 1, 0]))
    n = property(lambda self: float(self._arr[2, 2, 0]))
    a = property(lambda self: Octonion(self._arr[0, 1]))
    b = property(lambda self: Octonion(self._arr[2, 0]))
    c = property(lambda self: Octonion(self._arr[1, 2]))

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
    def from_array(cls, arr: np.ndarray, check: bool = True) -> "JordanMatrix":
        """Build from a (3, 3, 8) coefficient array, symmetrising rounding noise.

        With ``check`` the array must be Hermitian to tolerance.  Entries
        must be finite.
        """
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (3, 3, 8):
            raise ValueError(f"expected shape (3, 3, 8), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("entries must be finite")
        if check:
            dev = _norm(arr - _conj_transpose(arr))
            if dev > tolerances.atol + tolerances.rtol * _norm(arr):
                raise ValueError("array is not Hermitian")
        return cls._wrap(_hermitian_part(arr))

    # -- invariants ----------------------------------------------------------

    def trace(self) -> float:
        return float(_trace(self._arr))

    def sigma(self) -> float:
        """Sum of the pairwise eigenvalue products, tr(A * A)."""
        return _quadratic(self._arr)[3]

    def det(self) -> float:
        """Cubic norm: p m n + 2 Re(b (a c)) - n |a|^2 - m |b|^2 - p |c|^2."""
        return _det_shifted(self._arr, 0.0)

    def trace_reversal(self) -> "JordanMatrix":
        """A - (tr A) I, the involution entering the determinant identities."""
        arr = self._arr.copy()
        _diag(arr)[:] -= self.trace()
        return JordanMatrix._wrap(arr)

    def offdiag_norm(self) -> float:
        return math.sqrt(2.0 * sum(_quadratic(self._arr)[2]))

    def diagonal(self) -> tuple[float, float, float]:
        return tuple(_diag(self._arr).tolist())

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        (p, m, n), (a, b, c), _, _ = _quadratic(self._arr)
        return {"p": p, "m": m, "n": n, "a": a.tolist(), "b": b.tolist(), "c": c.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "JordanMatrix":
        try:
            return cls(float(data["p"]), float(data["m"]), float(data["n"]),
                       *(np.asarray(data[k], dtype=float) for k in "abc"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid Jordan matrix payload: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"JordanMatrix(p={self.p:.6g}, m={self.m:.6g}, n={self.n:.6g}, "
            f"a={self.a}, b={self.b}, c={self.c})"
        )


_IDENTITY = JordanMatrix(1.0, 1.0, 1.0)


# -- products ----------------------------------------------------------------


def jordan_product(A: JordanMatrix, B: JordanMatrix) -> JordanMatrix:
    """(A B + B A) / 2.  Commutative, non-associative."""
    return JordanMatrix._wrap(_jordan(A._arr, B._arr))


def freudenthal_product(A: JordanMatrix, B: JordanMatrix) -> JordanMatrix:
    """The symmetric cross product whose trace recovers sigma and det."""
    return JordanMatrix._wrap(_freudenthal(A._arr, B._arr))


def char_poly(A: JordanMatrix) -> tuple[float, float, float]:
    """Coefficients (tr A, sigma(A), det A) of t^3 - tr t^2 + sigma t - det.

    Computed on A / 2^e and multiplied back by 2^e, 2^2e and 2^3e, which is
    exact; a coefficient outside the double range becomes +/-inf, never NaN,
    and :func:`albert.cubic.solve_characteristic` rejects it.
    """
    (a,), e = _unit_scale((A._arr, 1))
    poly = _invariants(a)
    if e == 0:
        return poly
    with np.errstate(over="ignore", under="ignore"):
        return tuple(np.ldexp(poly, (e, 2 * e, 3 * e)).tolist())


def det_via_trace(A: JordanMatrix) -> float:
    """Determinant through tr((A * A) o A) / 3; cross-check for det()."""
    return jordan_product(freudenthal_product(A, A), A).trace() / 3.0


def matvec(A: JordanMatrix, v: OctVector3) -> OctVector3:
    """Ordinary matrix-vector product with octonion entries."""
    return OctVector3._wrap((_embed(A._arr) @ v._arr.reshape(24)).reshape(3, 8))


def sandwich(M: JordanMatrix, A: JordanMatrix) -> JordanMatrix:
    """The nested conjugate M (A M) = (M A) M.

    The two bracketings agree because the entries of M lie in a single
    complex subalgebra, which makes the product flexible; the result is
    Hermitian again when M is.
    """
    return JordanMatrix._wrap(_jordan(_raw_mul(M._arr, A._arr), M._arr))


# -- rank-one projectors -------------------------------------------------------


def _outer(v: np.ndarray) -> np.ndarray:
    """v v-dagger of a (3, 8) array, entry by entry, a = v1 conj(v2),
    b = v3 conj(v1), c = v2 conj(v3): no bracketing of three components."""
    left, right = v[[0, 2, 1]], v[[1, 0, 2]] * CONJ_SIGNS
    upper = (left_mult(left) @ right[:, :, None])[:, :, 0]
    return _hermitian(np.einsum("ij,ij->i", v, v), upper)


def rank1_from_vector(v: OctVector3) -> JordanMatrix:
    """v v-dagger as a Jordan matrix, formed on v / 2^e and multiplied back
    by 2^2e.

    The components of v must associate (their associator must vanish to
    tolerance, at unit scale), otherwise the result would not satisfy
    V * V = 0.
    """
    (u,), e = _unit_scale((v._arr, 1))
    assoc, scale = _norm(_associator(*u)), math.prod(map(_norm, u))
    if assoc > tolerances.atol + tolerances.rtol * scale:
        raise NonAssociativeComponentsError(
            f"components do not associate (|[v1,v2,v3]| / (|v1| |v2| |v3|) = {assoc / scale:.3e})"
        )
    return JordanMatrix._wrap(*_rescale(e, (_outer(u), 2)))


def extract_vector(V: JordanMatrix, rank_rtol: float | None = None) -> OctVector3:
    """Recover v with v v-dagger = V from a rank-one matrix.

    The pivot is the largest diagonal entry (smallest index on ties) and the
    returned vector is the pivot column scaled by 1/sqrt(V_kk), so its pivot
    component is the positive real sqrt(V_kk).  v is unique up to a
    quaternionic phase.  V has degree two in v, so it is brought to unit
    scale by an even power of two and v takes half of it.
    """
    (v,), e = _unit_scale((V._arr, 2))
    return OctVector3._wrap(*_rescale(e, (_extract(v, rank_rtol)[0], 1)))


def _extract(V: np.ndarray, rank_rtol: float | None,
             VoV: np.ndarray | None = None) -> np.ndarray:
    """:func:`extract_vector` on (3, 3, 8) or (k, 3, 3, 8), giving (k, 3, 8).
    ``VoV`` is the Jordan square V o V when the caller already holds it."""
    rtol = tolerances.rtol if rank_rtol is None else rank_rtol
    VxV = _freudenthal(V, V, VoV).reshape(-1, 3, 3, 8)
    V = V.reshape(-1, 3, 3, 8)
    out = np.empty((len(V), 3, 8))
    for i, (nrm, vxv, diag) in enumerate(zip(map(_norm, V), map(_norm, VxV), _diag(V).tolist())):
        if vxv > tolerances.atol + rtol * nrm * nrm:
            raise NotRankOneError(
                f"V * V does not vanish (|V*V| / |V|^2 = {vxv / (nrm * nrm):.3e})"
            )
        tr = diag[0] + diag[1] + diag[2]
        if tr <= tolerances.atol + tolerances.rtol * nrm:
            raise ZeroMatrixError("trace is not positive")
        pivot = max(diag)
        if pivot <= 0.0:
            raise ZeroMatrixError("no positive diagonal entry to pivot on")
        out[i] = V[i, :, diag.index(pivot)] / math.sqrt(pivot)
    return out


def offdiag_associator(A: JordanMatrix) -> Octonion:
    """Associator of the three off-diagonal entries.

    Vanishes exactly when (a, b, c) lie in a common associative subalgebra,
    which holds for every primitive idempotent.
    """
    return Octonion._wrap(_associator(*_quadratic(A._arr)[1]))


def phase_align(v: OctVector3) -> OctVector3:
    """Right-multiply by a unit phase so the third component is real >= 0.

    The phase lies in the subalgebra spanned by the components, so
    v v-dagger is unchanged.  A vector whose third component vanishes
    relative to |v| is returned as-is.
    """
    r = v._arr[2]
    rn = _norm(r)
    if rn <= tolerances.rtol * v.norm():
        return v
    return OctVector3._wrap(left_mult(v._arr) @ (r * CONJ_SIGNS * (1.0 / rn)))

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
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .config import tolerances
from .exceptions import (
    NonAssociativeComponentsError,
    NotRankOneError,
    ZeroMatrixError,
    ZeroVectorError,
)
from .octonion import CONJ_SIGNS, MUL_TENSOR, Octonion, associator

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


def _as_octonion(x) -> Octonion:
    if isinstance(x, Octonion):
        return x
    if isinstance(x, Real):
        return Octonion.from_real(float(x))
    return Octonion(x)


def _conj_transpose(arr: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a (3, 3, 8) array of octonion coefficients."""
    return arr.transpose(1, 0, 2) * CONJ_SIGNS


def _raw_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ordinary (non-Hermitian) product of two (3, 3, 8) octonion matrices."""
    return np.einsum("ika,kjb,abc->ijc", x, y, MUL_TENSOR)


@dataclass(frozen=True)
class OctVector3:
    """A column vector of three octonions."""

    components: tuple[Octonion, Octonion, Octonion]

    def __init__(self, components):
        comps = tuple(_as_octonion(c) for c in components)
        if len(comps) != 3:
            raise ValueError("vector needs exactly 3 components")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "OctVector3":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (3, 8):
            raise ValueError(f"expected shape (3, 8), got {arr.shape}")
        return cls(tuple(Octonion(row) for row in arr))

    def to_array(self) -> np.ndarray:
        return np.array([c.coeffs for c in self.components])

    def __getitem__(self, i: int) -> Octonion:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def dagger_dot(self, other: "OctVector3") -> Octonion:
        """v-dagger w = sum_i conj(v_i) w_i."""
        out = Octonion.zero()
        for vi, wi in zip(self.components, other.components):
            out = out + vi.conjugate() * wi
        return out

    def norm2(self) -> float:
        """v-dagger v, always real and non-negative."""
        return float(sum(c.norm2() for c in self.components))

    def norm(self) -> float:
        return float(np.sqrt(self.norm2()))

    def __mul__(self, scalar) -> "OctVector3":
        if isinstance(scalar, (Real, Octonion)):
            return OctVector3(tuple(c * scalar for c in self.components))
        return NotImplemented

    def __rmul__(self, scalar) -> "OctVector3":
        if isinstance(scalar, Real):
            return self * scalar
        return NotImplemented

    def isclose(self, other: "OctVector3", atol=None, rtol=None) -> bool:
        atol = tolerances.atol if atol is None else atol
        rtol = tolerances.rtol if rtol is None else rtol
        diff = float(np.linalg.norm(self.to_array() - other.to_array()))
        return diff <= atol + rtol * max(self.norm(), other.norm())

    def __eq__(self, other) -> bool:
        if not isinstance(other, OctVector3):
            return NotImplemented
        return self.isclose(other)

    __hash__ = None

    def to_list(self) -> list[list[float]]:
        return [list(map(float, c.coeffs)) for c in self.components]

    @classmethod
    def from_list(cls, data) -> "OctVector3":
        return cls.from_array(np.asarray(data, dtype=float))


@dataclass(frozen=True)
class JordanMatrix:
    """Element of the Albert algebra in the (p, m, n; a, b, c) layout."""

    p: float
    m: float
    n: float
    a: Octonion
    b: Octonion
    c: Octonion

    def __init__(self, p=0.0, m=0.0, n=0.0, a=None, b=None, c=None):
        object.__setattr__(self, "p", float(p))
        object.__setattr__(self, "m", float(m))
        object.__setattr__(self, "n", float(n))
        object.__setattr__(self, "a", _as_octonion(a) if a is not None else Octonion.zero())
        object.__setattr__(self, "b", _as_octonion(b) if b is not None else Octonion.zero())
        object.__setattr__(self, "c", _as_octonion(c) if c is not None else Octonion.zero())

    # -- constructors --------------------------------------------------------

    @classmethod
    def diag(cls, p: float, m: float, n: float) -> "JordanMatrix":
        return cls(p=p, m=m, n=n)

    @classmethod
    def identity(cls) -> "JordanMatrix":
        return cls.diag(1.0, 1.0, 1.0)

    @classmethod
    def zero(cls) -> "JordanMatrix":
        return cls()

    @classmethod
    def from_array(cls, arr: np.ndarray, check: bool = True) -> "JordanMatrix":
        """Build from a (3, 3, 8) coefficient array, symmetrising rounding noise.

        With ``check`` the array must be Hermitian to tolerance.
        """
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (3, 3, 8):
            raise ValueError(f"expected shape (3, 3, 8), got {arr.shape}")
        if check:
            dev = float(np.linalg.norm(arr - _conj_transpose(arr)))
            scale = float(np.linalg.norm(arr))
            if dev > tolerances.atol + tolerances.rtol * scale:
                raise ValueError("array is not Hermitian")
        herm = (arr + _conj_transpose(arr)) / 2.0
        return cls(
            p=herm[0, 0, 0],
            m=herm[1, 1, 0],
            n=herm[2, 2, 0],
            a=Octonion(herm[0, 1]),
            b=Octonion(herm[2, 0]),
            c=Octonion(herm[1, 2]),
        )

    def to_array(self) -> np.ndarray:
        arr = np.zeros((3, 3, 8))
        arr[0, 0, 0] = self.p
        arr[1, 1, 0] = self.m
        arr[2, 2, 0] = self.n
        arr[0, 1] = self.a.coeffs
        arr[1, 0] = self.a.conjugate().coeffs
        arr[2, 0] = self.b.coeffs
        arr[0, 2] = self.b.conjugate().coeffs
        arr[1, 2] = self.c.coeffs
        arr[2, 1] = self.c.conjugate().coeffs
        return arr

    # -- invariants ----------------------------------------------------------

    def trace(self) -> float:
        return self.p + self.m + self.n

    def sigma(self) -> float:
        """Sum of the pairwise eigenvalue products, tr(A * A)."""
        return (
            self.p * self.m
            + self.m * self.n
            + self.p * self.n
            - self.a.norm2()
            - self.b.norm2()
            - self.c.norm2()
        )

    def det(self) -> float:
        """Cubic norm: p m n + 2 Re(b (a c)) - n |a|^2 - m |b|^2 - p |c|^2."""
        bac = self.b * (self.a * self.c)
        return (
            self.p * self.m * self.n
            + 2.0 * bac.real
            - self.n * self.a.norm2()
            - self.m * self.b.norm2()
            - self.p * self.c.norm2()
        )

    def trace_reversal(self) -> "JordanMatrix":
        """A - (tr A) I, the involution entering the determinant identities."""
        t = self.trace()
        return JordanMatrix(self.p - t, self.m - t, self.n - t, self.a, self.b, self.c)

    def norm(self) -> float:
        """Frobenius norm, counting each off-diagonal octonion twice."""
        return float(
            np.sqrt(
                self.p**2
                + self.m**2
                + self.n**2
                + 2.0 * (self.a.norm2() + self.b.norm2() + self.c.norm2())
            )
        )

    def offdiag_norm(self) -> float:
        return float(np.sqrt(2.0 * (self.a.norm2() + self.b.norm2() + self.c.norm2())))

    def diagonal(self) -> tuple[float, float, float]:
        return (self.p, self.m, self.n)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "JordanMatrix":
        if not isinstance(other, JordanMatrix):
            return NotImplemented
        return JordanMatrix(
            self.p + other.p, self.m + other.m, self.n + other.n,
            self.a + other.a, self.b + other.b, self.c + other.c,
        )

    def __sub__(self, other) -> "JordanMatrix":
        if not isinstance(other, JordanMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "JordanMatrix":
        return self * -1.0

    def __mul__(self, scalar) -> "JordanMatrix":
        if not isinstance(scalar, Real):
            return NotImplemented
        s = float(scalar)
        return JordanMatrix(self.p * s, self.m * s, self.n * s,
                            self.a * s, self.b * s, self.c * s)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "JordanMatrix":
        if not isinstance(scalar, Real):
            return NotImplemented
        return self * (1.0 / float(scalar))

    def isclose(self, other: "JordanMatrix", atol=None, rtol=None) -> bool:
        atol = tolerances.atol if atol is None else atol
        rtol = tolerances.rtol if rtol is None else rtol
        diff = (self - other).norm()
        return diff <= atol + rtol * max(self.norm(), other.norm())

    def __eq__(self, other) -> bool:
        if not isinstance(other, JordanMatrix):
            return NotImplemented
        return self.isclose(other)

    __hash__ = None

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "p": float(self.p),
            "m": float(self.m),
            "n": float(self.n),
            "a": list(map(float, self.a.coeffs)),
            "b": list(map(float, self.b.coeffs)),
            "c": list(map(float, self.c.coeffs)),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JordanMatrix":
        try:
            A = cls(
                p=float(data["p"]), m=float(data["m"]), n=float(data["n"]),
                a=Octonion(np.asarray(data["a"], dtype=float)),
                b=Octonion(np.asarray(data["b"], dtype=float)),
                c=Octonion(np.asarray(data["c"], dtype=float)),
            )
            if not np.isfinite(A.to_array()).all():
                raise ValueError("entries must be finite")
            return A
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid Jordan matrix payload: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"JordanMatrix(p={self.p:.6g}, m={self.m:.6g}, n={self.n:.6g}, "
            f"a={self.a}, b={self.b}, c={self.c})"
        )


# -- products ----------------------------------------------------------------


def jordan_product(A: JordanMatrix, B: JordanMatrix) -> JordanMatrix:
    """(A B + B A) / 2.  Commutative, non-associative."""
    raw = _raw_mul(A.to_array(), B.to_array())
    # B A is the conjugate transpose of A B for Hermitian factors.
    herm = (raw + _conj_transpose(raw)) / 2.0
    return JordanMatrix.from_array(herm, check=False)


def freudenthal_product(A: JordanMatrix, B: JordanMatrix) -> JordanMatrix:
    """The symmetric cross product whose trace recovers sigma and det."""
    circ = jordan_product(A, B)
    ta, tb = A.trace(), B.trace()
    scalar = (ta * tb - circ.trace()) / 2.0
    out = circ - (B * ta + A * tb) * 0.5
    return JordanMatrix(
        out.p + scalar, out.m + scalar, out.n + scalar, out.a, out.b, out.c
    )


def char_poly(A: JordanMatrix) -> tuple[float, float, float]:
    """Coefficients (tr A, sigma(A), det A) of t^3 - tr t^2 + sigma t - det."""
    return (A.trace(), A.sigma(), A.det())


def det_via_trace(A: JordanMatrix) -> float:
    """Determinant through tr((A * A) o A) / 3; cross-check for det()."""
    return jordan_product(freudenthal_product(A, A), A).trace() / 3.0


def matvec(A: JordanMatrix, v: OctVector3) -> OctVector3:
    """Ordinary matrix-vector product with octonion entries."""
    out = np.einsum("ija,jb,abc->ic", A.to_array(), v.to_array(), MUL_TENSOR)
    return OctVector3.from_array(out)


def sandwich(M: JordanMatrix, A: JordanMatrix) -> JordanMatrix:
    """The nested conjugate M (A M) = (M A) M.

    The two bracketings agree because the entries of M lie in a single
    complex subalgebra, which makes the product flexible; the result is
    Hermitian again when M is.
    """
    ma = _raw_mul(M.to_array(), A.to_array())
    mam = _raw_mul(ma, M.to_array())
    return JordanMatrix.from_array(mam, check=False)


# -- rank-one projectors -------------------------------------------------------


def rank1_from_vector(v: OctVector3) -> JordanMatrix:
    """v v-dagger as a Jordan matrix.

    The components of v must associate (their associator must vanish to
    tolerance), otherwise the result would not satisfy V * V = 0.
    """
    v1, v2, v3 = v.components
    assoc = associator(v1, v2, v3)
    scale = v1.norm() * v2.norm() * v3.norm()
    if assoc.norm() > tolerances.atol + tolerances.rtol * scale:
        raise NonAssociativeComponentsError(
            f"components do not associate (|[v1,v2,v3]| = {assoc.norm():.3e})"
        )
    return JordanMatrix(
        p=v1.norm2(), m=v2.norm2(), n=v3.norm2(),
        a=v1 * v2.conjugate(), b=v3 * v1.conjugate(), c=v2 * v3.conjugate(),
    )


def extract_vector(V: JordanMatrix, rank_rtol: float | None = None) -> OctVector3:
    """Recover v with v v-dagger = V from a rank-one matrix.

    The pivot is the largest diagonal entry (smallest index on ties) and the
    returned vector is the pivot column scaled by 1/sqrt(V_kk), so its pivot
    component is the positive real sqrt(V_kk).  v is unique up to a
    quaternionic phase.
    """
    rtol = tolerances.rtol if rank_rtol is None else rank_rtol
    nrm = V.norm()
    vxv = freudenthal_product(V, V)
    if vxv.norm() > tolerances.atol + rtol * nrm * nrm:
        raise NotRankOneError(
            f"V * V does not vanish (|V*V| = {vxv.norm():.3e} at |V| = {nrm:.3e})"
        )
    if V.trace() <= tolerances.atol + tolerances.rtol * nrm:
        raise ZeroMatrixError(f"trace {V.trace():.3e} is not positive")
    diag = np.array(V.diagonal())
    k = int(np.argmax(diag))
    pivot = diag[k]
    if pivot <= 0.0:
        raise ZeroMatrixError("no positive diagonal entry to pivot on")
    arr = V.to_array()
    return OctVector3.from_array(arr[:, k] / np.sqrt(pivot))


def offdiag_associator(A: JordanMatrix) -> Octonion:
    """Associator of the three off-diagonal entries.

    Vanishes exactly when (a, b, c) lie in a common associative subalgebra,
    which holds for every primitive idempotent.
    """
    return associator(A.a, A.b, A.c)


def phase_align(v: OctVector3) -> OctVector3:
    """Right-multiply by a unit phase so the third component is real >= 0.

    The phase lies in the subalgebra spanned by the components, so
    v v-dagger is unchanged.  A vector with (near-)zero third component is
    returned as-is.
    """
    x, y, r = v.components
    rn = r.norm()
    if rn <= tolerances.atol + tolerances.rtol * v.norm():
        return v
    q = r.conjugate() * (1.0 / rn)
    return OctVector3((x * q, y * q, r * q))

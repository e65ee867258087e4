"""Null 2x2 octonionic Hermitian matrices and their 3x3 rank-one packing.

A 2x2 Hermitian matrix over the octonions,

    P = [[s, z], [conj(z), t]],    s, t real,

has determinant ``s*t - |z|^2`` and trace reversal ``P~ = P - tr(P) I``.
When ``det P = 0`` the equation ``P~ psi = 0`` is solved in closed form:
``P = sign * theta theta^dagger`` for a 2-component column ``theta`` whose
components lie in the same complex subalgebra as ``z``, and the general
solution is ``psi = theta xi`` with ``xi`` an arbitrary octonion.

Stacking ``Psi = (theta_1, theta_2, conj(xi))`` packs the pair into a 3x3
Jordan matrix ``PP = Psi Psi^dagger`` (formed entrywise, since the
components of ``Psi`` need not associate) which satisfies the rank-one
condition ``PP * PP = 0``.  ``classify_psquare`` reports how many nonzero
squares a Jordan matrix decomposes into, read off degree-consistently from
its invariants (det ~ scale^3, sigma ~ scale^2, trace ~ scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RESIDUAL_RTOL, _rescale, _unit_scale, tolerances
from .exceptions import InconsistentError, NonNullMomentumError
from .jordan import JordanMatrix, OctVector3, _invariants, _outer
from .octonion import CONJ_SIGNS, Octonion, _ArrayValue, _as_octonion, _finite

# Relative threshold shared by the null-momentum gate and the p-square
# class boundaries; scaled by the matching power of the input norm.
CLASS_RTOL = 1e-8


class Hermitian2(_ArrayValue):
    """2x2 octonionic Hermitian matrix [[s, z], [conj(z), t]].

    Immutable; stored as one read-only Hermitian (2, 2, 8) array.
    """

    __slots__ = ()

    def __init__(self, s=0.0, t=0.0, z=None):
        arr = np.zeros((2, 2, 8))
        arr[0, 0, 0], arr[1, 1, 0] = float(s), float(t)
        if z is not None:
            arr[0, 1] = _as_octonion(z).coeffs
            arr[1, 0] = arr[0, 1] * CONJ_SIGNS
        super().__init__(_finite(arr))

    s = property(lambda self: float(self._arr[0, 0, 0]))
    t = property(lambda self: float(self._arr[1, 1, 0]))
    z = property(lambda self: Octonion(self._arr[0, 1]))

    @classmethod
    def diag(cls, s: float, t: float) -> "Hermitian2":
        return cls(s=s, t=t)

    @classmethod
    def identity(cls) -> "Hermitian2":
        return cls(s=1.0, t=1.0)

    @classmethod
    def from_outer(cls, theta) -> "Hermitian2":
        """theta theta^dagger for a 2-component octonionic column."""
        t1, t2 = (_as_octonion(x) for x in theta)
        return cls(s=t1.norm2(), t=t2.norm2(), z=t1 * t2.conjugate())

    def trace(self) -> float:
        return self.s + self.t

    def det(self) -> float:
        return self.s * self.t - self.z.norm2()

    def trace_reversal(self) -> "Hermitian2":
        """P - tr(P) I; swaps and negates the diagonal."""
        return Hermitian2(s=-self.t, t=-self.s, z=self.z)

    def apply(self, psi) -> tuple[Octonion, Octonion]:
        """Matrix-vector action on a 2-component octonionic column."""
        p1, p2 = (_as_octonion(x) for x in psi)
        return (self.s * p1 + self.z * p2, self.z.conjugate() * p1 + self.t * p2)

    def to_dict(self) -> dict:
        return {"s": self.s, "t": self.t, "z": self._arr[0, 1].tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Hermitian2":
        try:
            return cls(s=float(data["s"]), t=float(data["t"]),
                       z=Octonion(np.asarray(data["z"], dtype=float)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid 2x2 Hermitian payload: {exc}") from exc

    def __repr__(self) -> str:
        return f"Hermitian2(s={self.s:.6g}, t={self.t:.6g}, z={self.z!r})"


def dirac_solve(P: Hermitian2) -> tuple[tuple[Octonion, Octonion], int]:
    """Factor a null momentum as P = sign * theta theta^dagger.

    The pivot is the larger diagonal entry of sign*P (ties keep the first),
    and theta's pivot component is the positive real square root of it, so
    the factor is deterministic.  Raises NonNullMomentumError when det P is
    not zero to tolerance, InconsistentError if the factor fails to
    reconstruct P.  P has degree two in theta: it is divided by an even
    power of two 2^2e, and theta is multiplied back by 2^e.
    """
    (p,), e = _unit_scale((P._arr, 2))
    P = Hermitian2._wrap(p)
    scale = (1.0 + P.norm()) ** 2
    if abs(P.det()) > CLASS_RTOL * scale:
        raise NonNullMomentumError(
            f"det / |P|^2 = {P.det() / P.norm() ** 2:.3e} exceeds tolerance; momentum is not null"
        )
    tr = P.trace()
    if abs(tr) <= tolerances.atol + tolerances.rtol * (1.0 + P.norm()):
        # Null and traceless forces s = t = 0 and z = 0.
        return (Octonion.zero(), Octonion.zero()), 1
    sign = 1 if tr > 0.0 else -1
    Q = P * sign
    if Q.s >= Q.t:
        piv = math.sqrt(max(Q.s, 0.0))
        theta = (Octonion.from_real(piv), Q.z.conjugate() / piv)
    else:
        piv = math.sqrt(max(Q.t, 0.0))
        theta = (Q.z / piv, Octonion.from_real(piv))
    recon = Hermitian2.from_outer(theta) * sign
    if (P - recon).norm() > RESIDUAL_RTOL * (1.0 + P.norm()):
        raise InconsistentError(
            f"rank-one factor residual / |P| = {(P - recon).norm() / P.norm():.3e} "
            "out of tolerance"
        )
    return tuple(map(Octonion, _rescale(e, *((t.coeffs, 1) for t in theta)))), sign


def psi_pack(theta, xi) -> tuple[OctVector3, JordanMatrix]:
    """Stack theta and xi into Psi = (theta; conj(xi)) and PP = Psi Psi^dagger.

    PP is assembled entrywise, which is the block formula

        PP = [[theta theta^dagger, theta xi], [(theta xi)^dagger, |xi|^2]],

    because the components of Psi need not associate.  For theta with
    components in a common complex subalgebra, PP * PP = 0.  PP is formed on
    Psi / 2^e and multiplied back by 2^2e; a nonzero Psi whose |Psi|^2
    overflows, or underflows below the smallest normal double, raises
    :class:`InconsistentError`.
    """
    t1, t2 = (_as_octonion(x).coeffs for x in theta)
    Psi = OctVector3._wrap(np.array([t1, t2, _as_octonion(xi).coeffs * CONJ_SIGNS]))
    (u,), e = _unit_scale((Psi._arr, 1))
    return Psi, JordanMatrix._wrap(_outer(u, e))


@dataclass(frozen=True)
class PSquareClass:
    """Number of nonzero squares in a Jordan matrix's decomposition."""

    p: int
    det: float
    sigma: float
    trace: float

    def to_dict(self) -> dict:
        return {"p": self.p, "det": self.det, "sigma": self.sigma, "trace": self.trace}


def classify_psquare(A: JordanMatrix) -> PSquareClass:
    """Classify A by how many of its eigenvalues are nonzero.

    det != 0 means three, else sigma != 0 means two, else trace != 0 means
    one, else zero.  Boundaries use CLASS_RTOL scaled by the power of ||A||
    matching each invariant's degree, so the class is scale-covariant; it is
    decided on A / 2^e, and the invariants are multiplied back by 2^e,
    2^2e and 2^3e.
    """
    (a,), e = _unit_scale((A._arr, 1))
    A = JordanMatrix._wrap(a)
    nrm = A.norm()
    tr, sigma, det = _invariants(a)
    if abs(det) > CLASS_RTOL * nrm**3:
        p = 3
    elif abs(sigma) > CLASS_RTOL * nrm**2:
        p = 2
    elif abs(tr) > CLASS_RTOL * nrm:
        p = 1
    else:
        p = 0
    tr, sigma, det = _rescale(e, (tr, 1), (sigma, 2), (det, 3))
    return PSquareClass(p=p, det=det, sigma=sigma, trace=tr)

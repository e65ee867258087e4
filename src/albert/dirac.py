"""Null 2x2 octonionic Hermitian matrices and their 3x3 rank-one packing.

A 2x2 Hermitian matrix over the octonions,

    P = [[s, z], [conj(z), t]],    s, t real,

is stored as its block (p, m, n) = (s, t, 0), a = z, b = c = 0 of the Albert
algebra, and the :mod:`albert.jordan` kernels do its arithmetic: det P =
``s*t - |z|^2`` is the block's sigma, and ``theta theta^dagger`` the block's
``v v^dagger`` for ``v = (theta, 0)``.  When ``det P = 0`` the equation
``P~ psi = 0``, ``P~ = P - tr(P) I``, is solved in closed form:
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

from typing import NamedTuple

import numpy as np

from .config import RESIDUAL_RTOL, _bound, _rescale, _unit_scale
from .exceptions import InconsistentError, NonNullMomentumError
from .jordan import (
    JordanMatrix,
    OctVector3,
    _frob,
    _invariants,
    _outer,
    _pivot_column,
    _quadratic,
    _trace,
    matvec,
)
from .octonion import Octonion, _ArrayValue, _as_octonion, _norm

# Relative threshold shared by the null-momentum gate and the p-square
# class boundaries; scaled by the matching power of the input norm.
CLASS_RTOL = 1e-8


class Hermitian2(_ArrayValue):
    """2x2 octonionic Hermitian matrix [[s, z], [conj(z), t]], immutable, stored as
    the read-only 27 coordinates of its Albert-algebra block (s, t, 0; z, 0, 0)."""

    __slots__ = ()

    def __init__(self, s=0.0, t=0.0, z=None):
        super().__init__(JordanMatrix(s, t, 0.0, z)._arr)

    s = property(lambda self: float(self._arr[0]))
    t = property(lambda self: float(self._arr[1]))
    z = property(lambda self: Octonion._wrap(self._arr[3:11]))
    _block = property(lambda self: JordanMatrix._wrap(self._arr))

    @classmethod
    def diag(cls, s: float, t: float) -> "Hermitian2":
        return cls(s=s, t=t)

    @classmethod
    def identity(cls) -> "Hermitian2":
        return cls(s=1.0, t=1.0)

    @classmethod
    def from_outer(cls, theta) -> "Hermitian2":
        """theta theta^dagger for a 2-component octonionic column: the block
        PP of :func:`psi_pack` with xi = 0, which gates its scale the same way."""
        return cls._wrap(psi_pack(theta, 0.0)[1]._arr)

    def norm(self) -> float:
        """Frobenius norm of the 2x2 matrix, z counting twice."""
        return self._block.norm()

    def trace(self) -> float:
        return self._block.trace()

    def det(self) -> float:
        """s t - |z|^2, the block's sigma."""
        return self._block.sigma()

    def trace_reversal(self) -> "Hermitian2":
        """P - tr(P) I; swaps and negates the diagonal."""
        h = self._arr.copy()
        h[:2] = -self._arr[1::-1]
        return Hermitian2._wrap(h)

    def apply(self, psi) -> tuple[Octonion, Octonion]:
        """Matrix-vector action on a 2-component octonionic column."""
        out = matvec(self._block, OctVector3((*psi, 0.0)))
        return out[0], out[1]

    def to_dict(self) -> dict:
        return {"s": self.s, "t": self.t, "z": self._arr[3:11].tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Hermitian2":
        try:
            return cls(float(data["s"]), float(data["t"]), np.asarray(data["z"], dtype=float))
        except KeyError as exc:
            raise ValueError(f"invalid 2x2 Hermitian payload: missing key {exc}") from exc
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid 2x2 Hermitian payload: {exc}") from exc

    def __repr__(self) -> str:
        return f"Hermitian2(s={self.s:.6g}, t={self.t:.6g}, z={self.z!r})"


def dirac_solve(P: Hermitian2) -> tuple[tuple[Octonion, Octonion], int]:
    """Factor a null momentum as P = sign * theta theta^dagger.

    theta is sign*P's column at its larger diagonal entry (the first on
    ties) over that entry's square root, the rule of
    :func:`albert.jordan.extract_vector`.  Raises NonNullMomentumError when
    det P is not zero to tolerance, InconsistentError if the factor fails
    to reconstruct P.  P is divided by an even power of two 2^2e, and theta,
    of degree one in it, is multiplied back by 2^e.
    """
    (p,), e = _unit_scale((P._arr, 2))
    nrm, det, tr = _norm(_frob(p)), _quadratic(p)[3], float(_trace(p))  # det P: the block's sigma
    if abs(det) > CLASS_RTOL * (1.0 + nrm) ** 2:
        raise NonNullMomentumError(f"det / |P|^2 = {det / nrm ** 2:.3e} exceeds tolerance; "
                                   "momentum is not null")
    if abs(tr) <= _bound(1.0 + nrm):
        # Null and traceless forces s = t = 0 and z = 0.
        return (Octonion.zero(), Octonion.zero()), 1
    sign = 1 if tr > 0.0 else -1
    u = _pivot_column(p * sign)
    resid = _norm(_frob(p - _outer(u, 0) * sign))
    if resid > RESIDUAL_RTOL * (1.0 + nrm):
        raise InconsistentError(f"rank-one factor residual / |P| = {resid / nrm:.3e} "
                                "out of tolerance")
    return tuple(map(Octonion, *_rescale(e, (u[:2], 1)))), sign


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
    Psi = OctVector3((*theta, _as_octonion(xi).conjugate()))
    (u,), e = _unit_scale((Psi._arr, 1))
    return Psi, JordanMatrix._wrap(_outer(u, e))


class PSquareClass(NamedTuple):
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
    nrm = _norm(_frob(a))
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

"""Diagonalization by nested reflections.

Every Jordan matrix A can be brought to diagonal form by conjugating with
three Hermitian involutions M1, M2, M3, each with entries in a single
complex subalgebra of the octonions.  The conjugations must stay nested,

    M3 (M2 (M1 A M1) M2) M3,

because matrices over different complex subalgebras do not associate; each
individual sandwich M X M is unambiguous (the entries of M associate with
anything), which is what :func:`albert.jordan.sandwich` computes.

The construction follows the eigenvector: given a unit eigenvector
v = (x, y, r) of a simple eigenvalue lambda, phase-aligned so r is real,

    N1^2 = |x|^2 + r^2,    M1 = [[-r, 0, x], [0, N1, 0], [conj(x), 0, r]] / N1
    N2^2 = N1^2 + |y|^2,   M2 = [[N2, 0, 0], [0, -N1, y], [0, conj(y), N1]] / N2

send v to (0, 0, 1), so the conjugated matrix is block diagonal with lambda
in the corner: [[X, 0], [0, lambda]] with X = [[s, z], [conj(z), t]].  When
N1 = 0 (or |y| = 0) the corresponding reflection degenerates to the
identity.  The final reflection diagonalises X using its larger eigenvalue
mu, whose eigenvector is (mu - t, conj(z)):

    N3 = (mu - t)^2 + |z|^2,
    M3 = [[mu - t, z, 0], [conj(z), t - mu, 0], [0, 0, sqrt(N3)]] / sqrt(N3)

with M3 = I when N3 = 0 (X already diagonal).  The result is
diag(mu, tr X - mu, lambda); each step preserves trace, sigma and
determinant, so the diagonal carries the characteristic roots.  The order
in which they appear is a convention, not canonical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _rescale, _unit_scale, tolerances
from .cubic import _solve
from .exceptions import ZeroVectorError
from .jordan import (
    JordanMatrix,
    OctVector3,
    _extract,
    char_poly,
    phase_align,
    sandwich,
)
from .octonion import CONJ_SIGNS
from .spectral import _idempotents

__all__ = ["DiagonalizationResult", "build_m1_m2", "diagonalize"]


@dataclass(frozen=True)
class DiagonalizationResult:
    """Reflections in application order, the final diagonal, and the
    largest off-diagonal entry magnitude left after conjugation."""

    steps: tuple[JordanMatrix, ...]
    diagonal: tuple[float, float, float]
    residual: float

    def to_dict(self) -> dict:
        return {
            "steps": [M.to_dict() for M in self.steps],
            "diagonal": [float(d) for d in self.diagonal],
            "residual": float(self.residual),
        }


def build_m1_m2(v: OctVector3) -> tuple[JordanMatrix, JordanMatrix]:
    """Reflections sending the direction of v to (0, 0, 1).

    v must be nonzero and phase-aligned (third component real).  The
    matrices depend only on the direction of v; for unit v the composite
    satisfies M2 (M1 v) = (0, 0, 1).
    """
    vn = v.norm()
    if vn <= tolerances.atol:
        raise ZeroVectorError("cannot build reflections from the zero vector")
    x, y, r = v._arr * (1.0 / vn)
    # computed from the coefficients directly: norm2() - real**2 cancels badly
    imag = float(np.linalg.norm(r[1:]))
    if imag > tolerances.atol + tolerances.rtol:
        raise ValueError("third component is not real; phase_align the vector first")

    r0, x2, y2 = float(r[0]), float(x @ x), float(y @ y)
    n1 = math.sqrt(x2 + r0**2)
    if n1 <= tolerances.atol + tolerances.rtol:
        m1 = JordanMatrix.identity()
    else:
        m1 = JordanMatrix(p=-r0 / n1, m=1.0, n=r0 / n1, b=x * CONJ_SIGNS * (1.0 / n1))
    if math.sqrt(y2) <= tolerances.atol + tolerances.rtol:
        m2 = JordanMatrix.identity()
    else:
        n2 = math.sqrt(n1 * n1 + y2)  # = 1 for unit v
        m2 = JordanMatrix(p=1.0, m=-n1 / n2, n=n1 / n2, c=y * (1.0 / n2))
    return m1, m2


def diagonalize(A: JordanMatrix) -> DiagonalizationResult:
    """Conjugate A to diagonal form, returning the steps for audit.

    The eigenvalue fed to the reflections is a simple root (the smallest
    when all are distinct); a scalar matrix returns with no steps.  The
    work runs on A / 2^e at unit scale; the reflections have degree zero,
    and the diagonal and residual are multiplied back by 2^e.
    """
    (a,), e = _unit_scale((A._arr, 1))
    A = JordanMatrix._wrap(a)
    poly = char_poly(A)
    roots = _solve(*poly)
    if roots.multiplicity == "triple":
        diagonal, residual = _rescale(e, (A.diagonal(), 1), (A.offdiag_norm(), 1))
        return DiagonalizationResult(steps=(), diagonal=tuple(diagonal), residual=residual)
    lam = min(roots.simple)

    P = _idempotents(A._arr, poly, [lam])
    v = phase_align(OctVector3._wrap(_extract(P, tolerances.residual_rtol)[0]))
    m1, m2 = build_m1_m2(v)
    b2 = sandwich(m2, sandwich(m1, A))

    # b2 is [[X, 0], [0, lam]] with X = [[s, z], [conj(z), t]] in the upper block.
    s, t, _ = b2.diagonal()
    z, z2 = b2._arr[0, 1], b2._norms2()[0]
    mu = 0.5 * ((s + t) + math.sqrt((s - t) ** 2 + 4.0 * z2))
    n3 = (mu - t) ** 2 + z2
    if n3 <= (tolerances.atol + tolerances.rtol * (1.0 + A.norm())) ** 2:
        m3 = JordanMatrix.identity()
    else:
        s3 = math.sqrt(n3)
        m3 = JordanMatrix(p=(mu - t) / s3, m=(t - mu) / s3, n=1.0, a=z * (1.0 / s3))
    b3 = sandwich(m3, b2)

    diagonal, residual = _rescale(e, (b3.diagonal(), 1), (math.sqrt(max(b3._norms2())), 1))
    return DiagonalizationResult(
        steps=(m1, m2, m3),
        diagonal=tuple(diagonal),
        residual=residual,
    )

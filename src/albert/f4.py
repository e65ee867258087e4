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

:func:`diagonalize` applies each reflection as the quadratic representation
U_M X = 2 M o (M o X) - M^2 o X, with M^2 = I: two products by the one
27x27 matrix L(M) on the Hermitian coordinates (see :mod:`albert.jordan`).
It equals M (X M) exactly when the associator [p, q, x] vanishes for any two
entries p, q of M and any octonion x, which holds when they lie in one
complex subalgebra, as the entries of M1, M2 and M3 do; for a generic M it
does not, and the public :func:`sandwich` keeps the ordinary products.

The reflections are shared: M1, M2 and U_M live in :mod:`albert.spectral`,
whose :func:`~albert.spectral.decompose` deflates close and repeated roots
with them and closes X with its eigenprojectors instead of applying M3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _rescale, _unit_scale, tolerances
from .cubic import _solve
from .jordan import _UNIT, JordanMatrix, OctVector3, _invariants, _op
from .spectral import _deflate, _idempotents, _m1_m2, _reflect

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
    matrices depend only on the direction of v, which is read from v / 2^e;
    for unit v the composite satisfies M2 (M1 v) = (0, 0, 1).
    """
    (u,), _ = _unit_scale((v._arr, 1))
    return tuple(JordanMatrix._wrap(m) for m in _m1_m2(u))


def _reflection(diag, row: int, entry: np.ndarray) -> np.ndarray:
    """Hermitian coordinates of the matrix with diagonal ``diag`` and entry
    a, b or c (row 0, 1, 2)."""
    h = np.zeros(27)
    h[:3] = diag
    h[3 + 8 * row:11 + 8 * row] = entry
    return h


def diagonalize(A: JordanMatrix) -> DiagonalizationResult:
    """Conjugate A to diagonal form, returning the steps for audit.

    The eigenvalue fed to the reflections is a simple root (the smallest
    when all are distinct); a scalar matrix returns with no steps.  The
    work runs on A / 2^e at unit scale; the reflections have degree zero,
    and the diagonal and residual are multiplied back by 2^e.
    """
    (h,), e = _unit_scale((A._arr, 1))
    A = JordanMatrix._wrap(h)
    poly = _invariants(h)
    roots = _solve(*poly)
    if roots.multiplicity == "triple":
        diagonal, residual = _rescale(e, (A.diagonal(), 1), (A.offdiag_norm(), 1))
        return DiagonalizationResult(steps=(), diagonal=tuple(diagonal), residual=residual)
    lam = min(roots.simple)

    nrm = A.norm()
    P, _ = _idempotents(h, nrm, poly, [lam])
    _, m12, _, b2 = _deflate(h, P)

    # b2 is [[X, 0], [0, lam]] with X = [[s, z], [conj(z), t]] in the upper block.
    s, t, z = float(b2[0]), float(b2[1]), b2[3:11]
    z2 = float(z @ z)
    mu = 0.5 * ((s + t) + math.sqrt((s - t) ** 2 + 4.0 * z2))
    n3 = (mu - t) ** 2 + z2
    if n3 <= (tolerances.atol + tolerances.rtol * (1.0 + nrm)) ** 2:
        m3 = _UNIT
    else:
        s3 = math.sqrt(n3)
        m3 = _reflection(((mu - t) / s3, (t - mu) / s3, 1.0), 0, z * (1.0 / s3))
    b3 = _reflect(b2, _op(m3))

    upper = b3[3:].reshape(3, 8)
    norms2 = (upper * upper).sum(axis=1).tolist()
    diagonal, residual = _rescale(e, (b3[:3].tolist(), 1), (math.sqrt(max(norms2)), 1))
    steps = np.vstack((m12, m3)) + 0.0  # adding 0.0 clears negative zeros
    return DiagonalizationResult(
        steps=tuple(JordanMatrix._wrap(m) for m in steps),
        diagonal=tuple(diagonal),
        residual=residual,
    )

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
identity.  lambda is the best-separated root, beyond the larger gap, whose
Q-route eigenvector stays accurate however close the other two roots are.
M3 closes X with the unit eigenvector (p, +/-conj(z)) / N3 of its eigenvalue
mu nearer s (+ when s >= t), where p = (|s - t| + r) / 2 >= |z| has no
cancellation, r^2 = (s - t)^2 + 4 |z|^2 and N3^2 = p^2 + |z|^2:

    M3 = [[p, +/-z, 0], [+/-conj(z), -p, 0], [0, 0, N3]] / N3.

M3 is never the identity: p = 0 only when X = s I, where p = 1 gives
diag(1, -1, 1).  The result is
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

The reduction is shared with :func:`~albert.spectral.decompose`, which
deflates close and repeated roots by the same reflections: the root choice,
M1, M2, M3 and U_M live in :mod:`albert.spectral`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import RESIDUAL_RTOL, _rescale, _unit_scale
from .cubic import _solve
from .exceptions import InconsistentError
from .jordan import JordanMatrix, OctVector3, _frob, _invariants, _op
from .octonion import _norm
from .spectral import _close_block, _deflate, _m1_m2, _reflect

__all__ = ["DiagonalizationResult", "build_m1_m2", "diagonalize"]


class DiagonalizationResult(NamedTuple):
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


def diagonalize(A: JordanMatrix) -> DiagonalizationResult:
    """Conjugate A to diagonal form diag(mu, nu, lambda), returning the steps
    for audit: M1, M2 and M3 as the module docstring builds them.  A triple
    root returns A's diagonal with no steps.  The residual, the largest
    off-diagonal |entry| left, raises :class:`InconsistentError` above
    ``RESIDUAL_RTOL * (1 + |A|)``, as when the cubic merges three close roots.
    The work runs on A / 2^e at unit scale; the reflections have degree zero,
    and the diagonal and residual are multiplied back by 2^e.
    """
    (h,), e = _unit_scale((A._arr, 1))
    nrm = _norm(_frob(h))
    poly = _invariants(h)
    roots = _solve(*poly)
    if roots.multiplicity == "triple":
        steps, x = np.zeros((0, 27)), h
    else:
        *_, m12, _, b2 = _deflate(h, nrm, poly, roots.roots)
        m3 = _close_block(b2)[0]
        steps, x = np.vstack((m12, m3)) + 0.0, _reflect(b2, _op(m3))  # + 0.0 clears -0.0

    upper = x[3:].reshape(3, 8)
    residual = math.sqrt(max((upper * upper).sum(axis=1).tolist()))
    if residual > RESIDUAL_RTOL * (1.0 + nrm):
        raise InconsistentError(f"off-diagonal residual / |A| = {residual / nrm:.3e} remains")
    diagonal, residual = _rescale(e, (x[:3].tolist(), 1), (residual, 1))
    return DiagonalizationResult(
        steps=tuple(JordanMatrix._wrap(m) for m in steps),
        diagonal=tuple(diagonal),
        residual=residual,
    )

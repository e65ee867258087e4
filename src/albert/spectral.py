"""Spectral decomposition in the Albert algebra.

A Jordan matrix A with characteristic roots lambda_i admits a decomposition

    A = sum_i lambda_i P_i,    P_i o P_j = 0 (i != j),    sum_i P_i = I

into orthogonal primitive idempotents.  For a simple root lambda the
idempotent comes from the cross-product square

    Q_lambda = (A - lambda I) * (A - lambda I),    P = Q_lambda / tr Q_lambda,

using tr Q_lambda = (lambda - mu)(lambda - nu), which vanishes exactly when
the root is repeated.  Repeated roots need their own constructions:

* triple root: A = lambda I and any orthogonal frame works; the diagonal
  unit matrices are returned.
* double root lambda: A - lambda I = +/- w w-dagger is rank one.  One
  eigenmatrix for lambda is built from a vector orthogonal to w, the other
  is the complement I - w w-dagger / |w|^2 - V1.  The pair spans the
  two-dimensional lambda eigenspace; the split is not canonical.

The alternative invariant form for a double root keeps the rank-two piece
whole instead of splitting it: A = mu P + lambda K with P = (A - lambda I)/
tr(A - lambda I) primitive and K = I - P its rank-two complement.

The array kernels of :mod:`albert.jordan` take stacks (k, 3, 3, 8), and
:func:`decompose` builds, purifies, extracts and checks the eigenmatrices of
all its roots as one stack; the public one-root functions are k = 1 calls.

The public functions run on A (and lambda) divided by 2^e and multiply each
output back by 2^(degree * e), so results are exact under 2^k scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _rescale, _unit_scale, tolerances
from .cubic import CubicRoots, _solve
from .exceptions import (
    InconsistentError,
    NotAnEigenvalueError,
    NotDoubleRootError,
    ZeroQMatrixError,
)
from .jordan import (
    JordanMatrix,
    OctVector3,
    _extract,
    _freudenthal,
    _jordan,
    _norms,
    _trace,
    char_poly,
    freudenthal_product,
    phase_align,
    rank1_from_vector,
)
from .octonion import CONJ_SIGNS, left_mult

__all__ = [
    "SpectralDecomposition",
    "q_matrix",
    "idempotent_from_q",
    "double_root_split",
    "invariant_double_decomposition",
    "decompose",
]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending), matching idempotents and eigenvectors.

    ``residuals`` records the verification data computed during assembly:
    per-pair eigen residuals |A o P - lambda P|, the largest pairwise
    |P_i o P_j|, and the completeness and reconstruction defects.
    """

    eigenvalues: tuple[float, float, float]
    idempotents: tuple[JordanMatrix, JordanMatrix, JordanMatrix]
    eigenvectors: tuple[OctVector3, OctVector3, OctVector3]
    residuals: dict

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "idempotents": [P.to_dict() for P in self.idempotents],
            "eigenvectors": [v.to_list() for v in self.eigenvectors],
            "residuals": {k: v for k, v in self.residuals.items()},
        }


def _check_root(poly: tuple[float, float, float], nrm: float, lam: float) -> None:
    """Raise unless lambda is a root of char_poly(A) = poly, where |A| = nrm."""
    t, s, d = poly
    value = ((lam - t) * lam + s) * lam - d
    if abs(value) > tolerances.atol + tolerances.rtol * (1.0 + nrm + abs(lam)) ** 3:
        raise NotAnEigenvalueError(
            f"characteristic value {value:.3e} at lambda={lam!r} exceeds tolerance"
        )


def _check_q_trace(t: float, q_norm: float) -> None:
    if abs(t) <= tolerances.atol + tolerances.rtol * (1.0 + q_norm):
        raise ZeroQMatrixError(
            f"tr Q = {t:.3e} vanishes to tolerance; the eigenvalue is repeated"
        )


def _q_stack(A: np.ndarray, lams) -> np.ndarray:
    """(A - lambda I) * (A - lambda I): (3, 3, 8) for one lambda, (k, 3, 3, 8) for k."""
    B = A - JordanMatrix.identity()._arr * np.asarray(lams)[..., None, None, None]
    return _freudenthal(B, B)


def q_matrix(A: JordanMatrix, lam: float) -> JordanMatrix:
    """(A - lambda I) * (A - lambda I) for an eigenvalue lambda of A."""
    (a, lam), e = _unit_scale((A._arr, 1), (lam, 1))
    A = JordanMatrix._wrap(a)
    _check_root(char_poly(A), A.norm(), lam)
    return JordanMatrix._wrap(*_rescale(e, (_q_stack(a, lam), 2)))


def idempotent_from_q(Q: JordanMatrix) -> JordanMatrix:
    """Normalise Q by its trace; fails when the trace vanishes.

    tr Q = (lambda - mu)(lambda - nu) may be negative (middle eigenvalue);
    only the magnitude is gated.
    """
    (q,), _ = _unit_scale((Q._arr, 1))  # Q / tr Q has degree zero
    Q = JordanMatrix._wrap(q)
    t = Q.trace()
    _check_q_trace(t, Q.norm())
    return Q / t


def _double_root_shift(A: JordanMatrix, lam: float) -> tuple[JordanMatrix, float]:
    """B = A - lambda I and its trace mu - lambda, for a double root lambda.

    Raises :class:`NotDoubleRootError` when B vanishes or is traceless (a
    triple root) or is not rank one (a simple root).
    """
    B = A - JordanMatrix.identity() * lam
    scale = 1.0 + A.norm() + abs(lam)
    if B.norm() <= tolerances.atol + tolerances.rtol * scale:
        raise NotDoubleRootError("A equals lambda I; the root is triple, not double")
    q_norm = freudenthal_product(B, B).norm()
    if q_norm > tolerances.atol + tolerances.mtol * scale**2:
        raise NotDoubleRootError(
            f"(A - lambda I) is not rank one (|Q| = {q_norm:.3e}); lambda is not a double root"
        )
    tb = B.trace()
    if abs(tb) <= tolerances.atol + tolerances.rtol * scale:
        raise NotDoubleRootError("tr(A - lambda I) vanishes; the root is triple, not double")
    return B, tb


def double_root_split(A: JordanMatrix, lam: float) -> tuple[JordanMatrix, JordanMatrix]:
    """Two orthogonal primitive idempotents for a double eigenvalue lambda.

    Requires A - lambda I = +/- w w-dagger of rank one (double root, not
    triple).  The first candidate is built from a vector orthogonal to w:
    writing w = (x, y, r) with r real, v = (|y|^2, -y conj(x), 0) satisfies
    v-dagger w = 0.  When the middle component is (near-)zero the
    coordinates are cyclically permuted until the construction applies.
    """
    (a, lam), e = _unit_scale((A._arr, 1), (lam, 1))
    return _split(JordanMatrix._wrap(a), lam, e)


def _split(A: JordanMatrix, lam: float, e: int) -> tuple[JordanMatrix, JordanMatrix]:
    """:func:`double_root_split` of a unit-scale A, ordered at the scale 2^e A."""
    B, tb = _double_root_shift(A, lam)
    sign = 1.0 if tb > 0 else -1.0

    w = OctVector3._wrap(_extract((B * sign)._arr, tolerances.mtol)[0])
    wn = w.norm()
    v = None
    for shift in range(3):
        # entry i of the shifted vector is entry (i + shift) % 3 of w
        wp = phase_align(OctVector3._wrap(np.roll(w._arr, -shift, axis=0)))
        x, y, _ = wp._arr
        y2 = float(y @ y)
        if math.sqrt(y2) > tolerances.atol + tolerances.rtol * wn:
            vp = np.zeros((3, 8))
            vp[0, 0] = y2
            vp[1] = -(left_mult(y) @ (x * CONJ_SIGNS))
            v = OctVector3._wrap(np.roll(vp, shift, axis=0))
            break
    if v is None:  # unreachable for w != 0: some cyclic shift has a nonzero middle entry
        raise NotDoubleRootError("could not orient w for the orthogonal construction")

    V1 = rank1_from_vector(v) / v.norm2()
    P_w = B / tb  # w w-dagger / (w-dagger w), independent of the sign
    V2 = JordanMatrix.identity() - P_w - V1

    # Deterministic order: descending trace of the pre-normalisation
    # matrices (v v-dagger versus the complement, which is born with
    # trace one); ties keep the orthogonal-vector construction first.
    # |v|^2 has degree two, so it is compared at the caller's scale.
    with np.errstate(over="ignore"):
        t1, t2 = float(np.ldexp(v.norm2(), 2 * e)), 1.0
    if t2 > t1 and abs(t1 - t2) > tolerances.atol + tolerances.rtol * max(t1, t2):
        return (V2, V1)
    return (V1, V2)


def invariant_double_decomposition(
    A: JordanMatrix, lam: float
) -> tuple[tuple[float, JordanMatrix], tuple[float, JordanMatrix]]:
    """Basis-free form of the double-root decomposition.

    Returns ((mu, P), (lambda, K)) with P = (A - lambda I)/tr(A - lambda I)
    primitive, K = -(A - lambda I)~/tr(A - lambda I) = I - P of rank two,
    and A = mu P + lambda K.
    """
    (a, unit_lam), e = _unit_scale((A._arr, 1), (lam, 1))
    A = JordanMatrix._wrap(a)
    B, tb = _double_root_shift(A, unit_lam)
    (mu,) = _rescale(e, (A.trace() - 2.0 * unit_lam, 1))
    P = B / tb
    K = -(B.trace_reversal()) / tb
    return ((mu, P), (float(lam), K))


def _purify(P: np.ndarray) -> np.ndarray:
    """Two idempotent-polishing steps, P -> 3 P^2 - 2 P^3, on a stack.

    Exact idempotents are fixed points; a near-idempotent loses its
    deviation quadratically in each step.  Q-route idempotents need this
    because their noise grows like eps / gap^2 as two eigenvalues approach:
    near 1e-4 at a gap of 1e-6, which one step leaves at the 1e-8 rank-one
    gate and two bring to rounding.  Powers of a single element associate,
    so the expression is unambiguous.
    """
    for _ in range(2):
        P2 = _jordan(P, P)
        P = P2 * 3.0 - _jordan(P2, P) * 2.0
    return P


def _idempotents(A: np.ndarray, poly: tuple[float, float, float], lams) -> np.ndarray:
    """Purified Q-route idempotents of A, poly = char_poly(A), for the roots
    lams, (k, 3, 3, 8).  After the arithmetic the gates of :func:`q_matrix`
    and :func:`idempotent_from_q` run root by root, as a loop over roots would."""
    Q = _q_stack(A, lams)
    tq = _trace(Q)
    nrm = math.sqrt(float(np.vdot(A, A)))
    for lam, t, q_norm in zip(lams, tq.tolist(), _norms(Q)):
        _check_root(poly, nrm, lam)
        _check_q_trace(t, q_norm)
    return _purify(Q * (1.0 / tq)[:, None, None, None])


def decompose(A: JordanMatrix) -> SpectralDecomposition:
    """Full eigenmatrix decomposition of A with verification residuals.

    The idempotents of the simple roots, the eigenvectors and the residuals
    are each computed on one (k, 3, 3, 8) stack.  Raises
    :class:`~albert.exceptions.InconsistentError` when the assembled
    pieces fail to reproduce A, and propagates root-multiplicity conflicts
    between the cubic solver and the Q-matrix criterion the same way.
    """
    (a,), e = _unit_scale((A._arr, 1))
    A = JordanMatrix._wrap(a)
    poly = char_poly(A)
    roots: CubicRoots = _solve(*poly)
    lams, lam = roots.roots, roots.repeated
    if roots.multiplicity == "double":
        # Cross-check the solver's multiplicity call against tr Q = sigma(A - lam I).
        trq = (A - JordanMatrix.identity() * lam).sigma()
        if abs(trq) > tolerances.mtol * (1.0 + max(abs(r) for r in lams)) ** 2:
            raise InconsistentError(
                f"cubic solver reports a double root but tr Q = {trq:.3e} does not vanish"
            )
    if roots.multiplicity == "triple":
        P = np.stack([JordanMatrix.diag(*unit)._arr for unit in np.eye(3)])
    else:
        try:
            P = _idempotents(A._arr, poly, roots.simple)
        except ZeroQMatrixError as exc:
            raise InconsistentError(
                "cubic solver reports a simple root with a vanishing Q matrix"
            ) from exc
    if roots.multiplicity == "double":
        V1, V2 = _split(A, lam, e)
        pair = (V1._arr, V2._arr)
        P = np.stack((P[0], *pair) if lams[0] > lam else (*pair, P[0]))

    # The idempotents were validated above; extraction uses the looser
    # residual gate because Q-route idempotents inherit noise of order
    # eps / gap^2 near close eigenvalues.
    vectors = _extract(P, tolerances.residual_rtol)
    scaled = P * np.array(lams)[:, None, None, None]
    completeness, recon = _norms((P[0] + P[1] + P[2] - JordanMatrix.identity()._arr,
                                  scaled[0] + scaled[1] + scaled[2] - A._arr))
    gate = tolerances.residual_rtol * (1.0 + A.norm())
    if not (recon <= gate and completeness <= gate):
        raise InconsistentError(
            f"assembled decomposition fails to reproduce A "
            f"(reconstruction {recon:.3e}, completeness {completeness:.3e})"
        )
    lams, eigen, recon = _rescale(
        e, (lams, 1), (_norms(_jordan(A._arr, P) - scaled), 1), (recon, 1))
    return SpectralDecomposition(
        eigenvalues=tuple(float(v) for v in lams),
        idempotents=tuple(JordanMatrix._wrap(p) for p in P),
        eigenvectors=tuple(OctVector3._wrap(v) for v in vectors),
        residuals={
            "eigen": eigen,
            "orthogonality": max(_norms(_jordan(P[[0, 0, 1]], P[[1, 2, 2]]))),
            "completeness": completeness,
            "reconstruction": recon,
        },
    )

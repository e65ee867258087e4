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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .cubic import CubicRoots, solve_characteristic
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
    extract_vector,
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
    x = 1.0 + nrm + abs(lam)
    scale = x * x * x
    if not math.isfinite(scale):
        raise InconsistentError(f"scale (1 + |A| + |lambda|)^3 overflows at {x:.3e}")
    value = ((lam - t) * lam + s) * lam - d
    if abs(value) > tolerances.atol + tolerances.rtol * scale:
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
    _check_root(char_poly(A), A.norm(), lam)
    return JordanMatrix._wrap(_q_stack(A._arr, lam))


def idempotent_from_q(Q: JordanMatrix) -> JordanMatrix:
    """Normalise Q by its trace; fails when the trace vanishes.

    tr Q = (lambda - mu)(lambda - nu) may be negative (middle eigenvalue);
    only the magnitude is gated.
    """
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
    if not math.isfinite(scale * scale):
        raise InconsistentError(f"scale (1 + |A| + |lambda|)^2 overflows at {scale:.3e}")
    if B.norm() <= tolerances.atol + tolerances.rtol * scale:
        raise NotDoubleRootError("A equals lambda I; the root is triple, not double")
    q_norm = freudenthal_product(B, B).norm()
    if q_norm > tolerances.atol + tolerances.mtol * scale * scale:
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
    B, tb = _double_root_shift(A, lam)
    sign = 1.0 if tb > 0 else -1.0

    w = extract_vector(B * sign, rank_rtol=tolerances.mtol)
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
    t1, t2 = v.norm2(), 1.0
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
    B, tb = _double_root_shift(A, lam)
    mu = A.trace() - 2.0 * lam
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


def decompose(A: JordanMatrix, mtol: float | None = None) -> SpectralDecomposition:
    """Full eigenmatrix decomposition of A with verification residuals.

    The idempotents of the simple roots, the eigenvectors and the residuals
    are each computed on one (k, 3, 3, 8) stack.  Raises
    :class:`~albert.exceptions.InconsistentError` when the assembled
    pieces fail to reproduce A, and propagates root-multiplicity conflicts
    between the cubic solver and the Q-matrix criterion the same way.
    """
    poly = char_poly(A)
    roots: CubicRoots = solve_characteristic(*poly, mtol=mtol)
    lams, lam = roots.roots, roots.repeated
    if roots.multiplicity == "double":
        # Cross-check the solver's multiplicity call against tr Q = sigma(A - lam I).
        trq = (A - JordanMatrix.identity() * lam).sigma()
        top = 1.0 + max(abs(r) for r in lams)
        if abs(trq) > tolerances.mtol * top * top:
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
        V1, V2 = double_root_split(A, lam)
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
    return SpectralDecomposition(
        eigenvalues=tuple(float(v) for v in lams),
        idempotents=tuple(JordanMatrix._wrap(p) for p in P),
        eigenvectors=tuple(OctVector3._wrap(v) for v in vectors),
        residuals={
            "eigen": _norms(_jordan(A._arr, P) - scaled),
            "orthogonality": max(_norms(_jordan(P[[0, 0, 1]], P[[1, 2, 2]]))),
            "completeness": completeness,
            "reconstruction": recon,
        },
    )

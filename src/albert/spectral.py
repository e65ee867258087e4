"""Spectral decomposition in the Albert algebra.

A Jordan matrix A with characteristic roots lambda_i admits a decomposition

    A = sum_i lambda_i P_i,    P_i o P_j = 0 (i != j),    sum_i P_i = I

into orthogonal primitive idempotents.  For a simple root lambda the
idempotent comes from the cross-product square

    Q_lambda = (A - lambda I) * (A - lambda I),    P = Q_lambda / tr Q_lambda,

using tr Q_lambda = (lambda - mu)(lambda - nu), which vanishes when the root
is repeated; as two roots approach, Q_lambda / tr Q_lambda loses digits like
eps / tr Q_lambda.  So :func:`decompose` deflates repeated and close roots:
when some tr Q_lambda falls below ``DEFLATE_TRACE * (1 + |A|)^2``, it runs
the reduction of :func:`albert.f4.diagonalize`.  Only the best-separated
root takes the Q route; M1 and M2 of its eigenvector leave it in the corner
beside a 2x2 block (:func:`_deflate`), and M3 of the block's
cancellation-free eigenvector closes the block (:func:`_close_block`).  The
pair's idempotents are U_M1 U_M2 U_M3 E_ii.  A triple root, A = lambda I,
gets the diagonal unit matrices.

:func:`double_root_split` is the paper's orthogonal-vector construction
for a double root lambda, A - lambda I = +/- w w-dagger: V1 = v v-dagger /
|v|^2 for a v with v-dagger w = 0, and V2 = I - w w-dagger / |w|^2 - V1.

The array kernels of :mod:`albert.jordan` take stacks (k, 27) of Hermitian
coordinates; :func:`decompose` builds, purifies, extracts and checks its
eigenmatrices as stacks, and the public one-root and double-root functions
are k = 1 calls.  They run on A and a finite lambda divided by 2^e and
multiply each output back by 2^(degree * e), so results, the order of the
double-root pair included, are exact under 2^k scaling.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import MTOL, RESIDUAL_RTOL, _bound, _rescale, _unit_scale
from .cubic import CubicRoots, _solve
from .exceptions import (
    InconsistentError,
    NotAnEigenvalueError,
    NotDoubleRootError,
    ZeroQMatrixError,
    ZeroVectorError,
)
from .jordan import (
    _FREUDENTHAL,
    _UNIT,
    JordanMatrix,
    OctVector3,
    _apply,
    _extract,
    _frob,
    _invariants,
    _mul,
    _op,
    _outer,
    _phase_align,
    _trace,
)
from .octonion import CONJ_SIGNS, _norm, left_mult

__all__ = [
    "SpectralDecomposition",
    "q_matrix",
    "idempotent_from_q",
    "double_root_split",
    "decompose",
]


class SpectralDecomposition(NamedTuple):
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
    if abs(value) > _bound((1.0 + nrm + abs(lam)) ** 3):
        raise NotAnEigenvalueError(
            "lambda is not a root: |characteristic value| / (|A| + |lambda|)^3 = "
            f"{abs(value) / (nrm + abs(lam)) ** 3:.3e} exceeds tolerance"
        )


def _check_q_trace(t: float, q_norm: float) -> None:
    if abs(t) <= _bound(1.0 + q_norm):
        raise ZeroQMatrixError("tr Q vanishes to tolerance; the eigenvalue is repeated")


def _q_stack(A: np.ndarray, lams) -> np.ndarray:
    """(A - lambda I) * (A - lambda I) of coordinates A: (27,) for one lambda,
    (k, 27) for k."""
    B = A - np.multiply.outer(lams, _UNIT)
    return _mul(B, B, _FREUDENTHAL)


def _at_unit_scale(A: JordanMatrix, lam: float):
    """The coordinates of A and lambda divided by 2^e, and e.  A NaN or
    infinite lambda raises ValueError, as a non-finite entry does in every
    constructor."""
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    return _unit_scale((A._arr, 1), (lam, 1))


def q_matrix(A: JordanMatrix, lam: float) -> JordanMatrix:
    """(A - lambda I) * (A - lambda I) for an eigenvalue lambda of A."""
    (a, lam), e = _at_unit_scale(A, lam)
    _check_root(_invariants(a), _norm(_frob(a)), lam)
    return JordanMatrix._wrap(*_rescale(e, (_q_stack(a, lam), 2)))


def idempotent_from_q(Q: JordanMatrix) -> JordanMatrix:
    """Normalise Q by its trace; fails when the trace vanishes.

    tr Q = (lambda - mu)(lambda - nu) may be negative (middle eigenvalue);
    only the magnitude is gated.
    """
    (q,), _ = _unit_scale((Q._arr, 1))  # Q / tr Q has degree zero
    t = float(_trace(q))
    _check_q_trace(t, _norm(_frob(q)))
    return JordanMatrix._wrap(q * (1.0 / t))


def double_root_split(A: JordanMatrix, lam: float) -> tuple[JordanMatrix, JordanMatrix]:
    """Two orthogonal primitive idempotents (V1, V2), in that order, for a
    double eigenvalue lambda: A - lambda I = +/- w w-dagger, of rank one.

    For the first slot pair (i, j) of (0, 1), (1, 2), (2, 0) with w_j
    nonzero, v_i = |w_j|^2 and v_j = -w_j conj(w_i), the paper's
    (|y|^2, -y conj(x), 0), give v-dagger w = 0.  w needs no phase: it is
    the pivot column of w w-dagger over sqrt of the pivot, so its pivot
    component is real, and its other two components generate an
    associative subalgebra that holds every component of v and w.  Raises
    :class:`NotDoubleRootError` when A - lambda I vanishes or is traceless
    (a triple root) or is not rank one (a simple root).
    """
    (a, lam), _ = _at_unit_scale(A, lam)
    B = a - lam * _UNIT
    scale = 1.0 + _norm(_frob(a)) + abs(lam)
    b_norm = _norm(_frob(B))
    if b_norm <= _bound(scale):
        raise NotDoubleRootError("A equals lambda I; the root is triple, not double")
    q_norm = _norm(_frob(_mul(B, B, _FREUDENTHAL)))
    if q_norm > _bound(scale**2, MTOL):
        raise NotDoubleRootError(
            "(A - lambda I) is not rank one (|Q| / |A - lambda I|^2 = "
            f"{q_norm / b_norm**2:.3e}); lambda is not a double root"
        )
    tb = float(_trace(B))  # mu - lambda
    if abs(tb) <= _bound(scale):
        raise NotDoubleRootError("tr(A - lambda I) vanishes; the root is triple, not double")
    w = _extract(B if tb > 0 else -B, MTOL)[0]
    y2 = (w * w).sum(axis=1).tolist()  # |w_j|^2
    gate = _bound(math.sqrt(sum(y2)))
    # the pivot slot k always qualifies: |w_k| = sqrt(B_kk) >= sqrt(|tb| / 3),
    # with |tb| > ATOL + RTOL, lies far above the gate ATOL + RTOL |w|
    i, j = next((i, j) for i, j in ((0, 1), (1, 2), (2, 0)) if math.sqrt(y2[j]) > gate)
    v = np.zeros((3, 8))
    v[i, 0] = y2[j]
    v[j] = -(left_mult(w[j]) @ (w[i] * CONJ_SIGNS))
    V1 = _outer(v, 0) * (1.0 / float(np.vdot(v, v)))
    return JordanMatrix._wrap(V1), JordanMatrix._wrap(_UNIT - B * (1.0 / tb) - V1)


#: |P o P - P| up to which a unit-trace P is idempotent to rounding: no step.
PURE_DEFECT = 8 * np.finfo(float).eps

#: |tr Q_lambda| / (1 + |A|)^2 below which :func:`decompose` deflates, from a
#: gap sweep: above it the Q route is within a few eps, below it loses digits.
DEFLATE_TRACE = 1e-2


def _purify(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Idempotent polishing, P -> 3 P^2 - 2 P^3, on a stack of coordinates;
    returns P and L(P), which the residuals of :func:`decompose` reuse.

    A step cuts the deviation quadratically.  Q-route noise grows like
    eps / |tr Q| as two eigenvalues approach (so :func:`decompose` deflates
    close roots); well-separated roots give |P o P - P| of 1-12 eps already.
    A step (on the whole stack, at most two) runs only while some root
    exceeds ``PURE_DEFECT``, 8 eps, as an unpolished P passes its defect to
    the result's residuals.  P has unit trace and degree zero, so the rule
    is scale-free.  Powers of one element associate: no ambiguity.
    """
    L = _op(P)
    P2 = _apply(P, L)
    for _ in range(2):
        if max(map(_norm, _frob(P2 - P))) <= PURE_DEFECT:
            break
        P = P2 * 3.0 - _apply(P2, L) * 2.0
        L = _op(P)
        P2 = _apply(P, L)
    return P, L


def _idempotents(A: np.ndarray, nrm: float, poly: tuple[float, float, float], lams):
    """Purified Q-route idempotents of coordinates A, |A| = nrm and
    poly = char_poly(A), for the roots lams, (k, 27), and L of them.  After
    the arithmetic the gates of :func:`q_matrix` and :func:`idempotent_from_q`
    run root by root, as a loop over roots would; the cubic solver reported
    these roots simple, so a vanishing Q is an :class:`InconsistentError`."""
    Q = _q_stack(A, lams)
    tq = _trace(Q)
    for lam, t, q_norm in zip(lams, tq.tolist(), map(_norm, _frob(Q))):
        _check_root(poly, nrm, lam)
        try:
            _check_q_trace(t, q_norm)
        except ZeroQMatrixError as exc:
            msg = "cubic solver reports a simple root with a vanishing Q matrix"
            raise InconsistentError(msg) from exc
    return _purify(Q * (1.0 / tq)[:, None])


def _m1_m2(u: np.ndarray) -> np.ndarray:
    """:func:`albert.f4.build_m1_m2` of a (3, 8) array at unit scale, as the
    Hermitian coordinates (2, 27) of M1 and M2."""
    vn = _norm(u)
    if vn == 0.0:
        raise ZeroVectorError("cannot build reflections from the zero vector")
    x, y, r = u * (1.0 / vn)
    # computed from the coefficients directly: norm2() - real**2 cancels badly
    if _norm(r[1:]) > _bound(1.0):
        raise ValueError("third component is not real; phase_align the vector first")

    r0, y2 = float(r[0]), float(y @ y)
    n1 = math.sqrt(float(x @ x) + r0**2)
    n2 = math.sqrt(n1 * n1 + y2)  # = 1 for unit v
    m = np.zeros((2, 27))
    m[:, :3] = 1.0  # a reflection that degenerates is the identity
    if n1 > _bound(1.0):
        m[0, :3] = -r0 / n1, 1.0, r0 / n1
        m[0, 11:19] = x * CONJ_SIGNS * (1.0 / n1)
    if math.sqrt(y2) > _bound(1.0):
        m[1, :3] = 1.0, -n1 / n2, n1 / n2
        m[1, 19:] = y * (1.0 / n2)
    return m


def _reflect(x: np.ndarray, L: np.ndarray) -> np.ndarray:
    """M (X M) of Hermitian coordinates x, (27,) or (k, 27), for a reflection
    M with L = L(M), as U_M X = 2 M o (M o X) - M^2 o X with M^2 = I."""
    return _apply(_apply(x, L), L) * 2.0 - x


def _deflate(h: np.ndarray, nrm: float, poly: tuple[float, float, float], lams):
    """Reflect unit-scale coordinates h, |h| = nrm, poly = char_poly(h) and
    roots lams (descending), by M1 and M2 of the best-separated root lambda,
    beyond the larger gap, to b2 = [[X, 0], [0, lambda]].  Returns its index
    (0 or 2), its Q-route idempotent (1, 27) and eigenvector (3, 8), M1 and
    M2 (2, 27), their L(M) (2, 27, 27) and b2."""
    l0, l1, l2 = lams
    k = 0 if l0 - l1 >= l1 - l2 else 2
    P, _ = _idempotents(h, nrm, poly, [lams[k]])
    v = _extract(P, RESIDUAL_RTOL)[0]
    m = _m1_m2(_phase_align(v))
    L = _op(m)
    return k, P, v, m, L, _reflect(_reflect(h, L[0]), L[1])


def _close_block(b2: np.ndarray):
    """M3 (27,) for the block X = [[s, z], [conj(z), t]] of b2, and X's
    eigenvalues, the one nearer s first.  M3's first column is that
    eigenvalue's unit eigenvector (p, +/-conj z) / n, + when s >= t, with
    p = (|s - t| + r) / 2 >= |z| free of cancellation and n^2 = p^2 + |z|^2;
    p = 0 only when X = s I, where p = 1 makes M3 diag(1, -1, 1)."""
    s, t, z = float(b2[0]), float(b2[1]), b2[3:11]
    z2 = float(z @ z)
    r = math.sqrt((s - t) ** 2 + 4.0 * z2)
    p = 0.5 * (abs(s - t) + r) or 1.0
    n = math.sqrt(p * p + z2)
    m3 = np.zeros(27)
    m3[:3] = p / n, -p / n, 1.0
    m3[3:11] = z * ((1.0 if s >= t else -1.0) / n)
    mu = 0.5 * ((s + t) + r)
    return m3, ((mu, s + t - mu) if s >= t else (s + t - mu, mu))


def decompose(A: JordanMatrix) -> SpectralDecomposition:
    """Full eigenmatrix decomposition of A with verification residuals.

    The idempotents, eigenvectors and residuals are computed on (k, 27)
    stacks of Hermitian coordinates.  A deflated root pair (see the module
    docstring) takes its eigenvalues from the block, and the isolated root
    its eigenvalue from the reflected corner.  Raises
    :class:`~albert.exceptions.InconsistentError` when any of the four
    residuals exceeds its gate (the assembled pieces fail to reproduce A, or
    are not orthogonal eigenmatrices of it), or when the cubic solver
    reports a simple root whose Q matrix vanishes.
    """
    (h,), e = _unit_scale((A._arr, 1))
    nrm = _norm(_frob(h))
    poly = _invariants(h)
    roots: CubicRoots = _solve(*poly)
    lams = l0, l1, l2 = roots.roots
    if roots.multiplicity == "triple":
        P = np.eye(27)[:3]
        L, vectors = _op(P), _extract(P, RESIDUAL_RTOL)
    # tr Q of the middle root, the smallest |tr Q|; 0 for a double root
    elif (l0 - l1) * (l1 - l2) < DEFLATE_TRACE * (1.0 + nrm) ** 2:
        k, P, v, _, L, b2 = _deflate(h, nrm, poly, lams)
        m3, pair_lams = _close_block(b2)
        c, w = float(m3[0]), m3[3:11]
        W = np.zeros((2, 27))  # U_M3 E11 and U_M3 E22
        W[0, :2] = W[1, 1::-1] = c * c, float(w @ w)
        W[:, 3:11] = np.multiply.outer((c, -c), w)
        if pair_lams[0] < pair_lams[1]:  # eigenvalues descend
            W, pair_lams = W[::-1], pair_lams[::-1]
        pair = _reflect(_reflect(W, L[1]), L[0])  # U_M1 U_M2 W
        pv = _extract(pair, RESIDUAL_RTOL)
        lam = float(b2[2])  # the reflected corner
        if k == 0:
            lams, P, vectors = (lam, *pair_lams), np.concatenate((P, pair)), (v, *pv)
        else:
            lams, P, vectors = (*pair_lams, lam), np.concatenate((pair, P)), (*pv, v)
        L = _op(P)
    else:
        P, L = _idempotents(h, nrm, poly, lams)
        vectors = _extract(P, RESIDUAL_RTOL)

    scaled = P * np.array(lams)[:, None]
    completeness = _norm(_frob(P.sum(axis=0) - _UNIT))
    recon = _norm(_frob(scaled.sum(axis=0) - h))
    gate = RESIDUAL_RTOL * (1.0 + nrm)
    if not (recon <= gate and completeness <= gate):
        raise InconsistentError(
            f"assembled decomposition fails to reproduce A "
            f"(reconstruction / |A| = {recon / nrm:.3e}, completeness {completeness:.3e})"
        )
    # L(P) gives every A o P_i and P_(i+1) o P_i, which are the three pairs.
    # P o P has degree zero, so orthogonality is gated without the |A| term.
    eigen = list(map(_norm, _frob(_apply(h, L) - scaled)))
    orthogonality = max(map(_norm, _frob(_apply(P[[1, 2, 0]], L))))
    if not (max(eigen) <= gate and orthogonality <= RESIDUAL_RTOL):
        raise InconsistentError(
            f"idempotents are not orthogonal eigenmatrices of A "
            f"(eigen / |A| = {max(eigen) / nrm:.3e}, orthogonality {orthogonality:.3e})"
        )
    lams, eigen, recon = _rescale(e, (lams, 1), (eigen, 1), (recon, 1))
    return SpectralDecomposition(
        eigenvalues=tuple(float(v) for v in lams),
        idempotents=tuple(JordanMatrix._wrap(p) for p in P + 0.0),  # adding 0.0 clears -0.0
        eigenvectors=tuple(OctVector3._wrap(v) for v in vectors),
        residuals={
            "eigen": eigen,
            "orthogonality": orthogonality,
            "completeness": completeness,
            "reconstruction": recon,
        },
    )

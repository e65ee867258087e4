"""Batch property verification over seeded random samples.

Each suite (``_suite_*``) is the residual of one identity or contract on one
sample, and :func:`_fold` combines it over a seeded stream.
``run_verification`` folds each suite on its own stream, derived from the
report seed, into a row {name, samples, max_residual, threshold, pass} and
passes iff every row does; the acceptance tests fold the same suites on
their own seeds.  Residuals are scale-free, mostly divided by
(1 + |A|)^degree; the characteristic equation divides by 1 + |A|^3, and the
F4 invariant drift takes the larger of that and the per-degree quotients.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from . import sampling
from .cubic import solve_characteristic
from .dirac import Hermitian2, classify_psquare, dirac_solve, psi_pack
from .f4 import diagonalize
from .jordan import (
    JordanMatrix,
    _invariants,
    char_poly,
    freudenthal_product,
    jordan_product,
    rank1_from_vector,
    sandwich,
)
from .octonion import associator
from .oracle import modified_char_check
from .spectral import decompose, double_root_split


class CheckRow(NamedTuple):
    """Outcome of one named property suite."""

    name: str
    samples: int
    max_residual: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "threshold": self.threshold,
            "pass": self.passed,
        }


class VerifyReport(NamedTuple):
    seed: int
    count: int
    rows: tuple[CheckRow, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "rows": [row.to_dict() for row in self.rows],
            "pass": self.passed,
        }


def _suite(threshold, combine=max):
    """Mark a one-sample residual as a suite: ``combine`` folds the samples'
    residuals, starting from 0, into the value gated at ``threshold``."""
    def mark(residual):
        residual.threshold, residual.combine = threshold, combine
        return residual
    return mark


def _fold(residual, rng, count: int) -> float:
    """The suite ``residual`` over ``count`` samples of ``rng``, folded by its
    ``combine`` from 0: the value its threshold gates."""
    worst = 0.0
    for _ in range(count):
        worst = residual.combine(worst, residual(rng))
    return worst


def _reflected(A):
    """A carried through the nested reflections of ``diagonalize(A)``, one
    matrix per step."""
    B = A
    for M in diagonalize(A).steps:
        B = sandwich(M, B)
        yield B


@_suite(1e-10)
def _suite_moufang(rng):
    # ((x y) x) z = (x (y x)) z = x (y (x z)), both bracketings of the left side
    x, y, z = (sampling.random_octonion(rng) for _ in range(3))
    rhs = x * (y * (x * z))
    scale = 1.0 + x.norm() ** 2 * y.norm() * z.norm()
    return max((((x * y) * x) * z - rhs).norm(), ((x * (y * x)) * z - rhs).norm()) / scale


@_suite(1e-9)
def _suite_char_equation(rng):
    A = sampling.random_jordan(rng)
    tr, sigma, det = char_poly(A)
    A2 = jordan_product(A, A)
    A3 = jordan_product(A2, A)
    resid = A3 - A2 * tr + A * sigma - JordanMatrix.identity() * det
    return resid.norm() / (1.0 + A.norm() ** 3)


@_suite(1e-9)
def _suite_springer(rng):
    A = sampling.random_jordan(rng)
    AxA = freudenthal_product(A, A)
    resid = freudenthal_product(AxA, AxA) - A * A.det()
    return resid.norm() / (1.0 + A.norm()) ** 4


@_suite(1e-9)
def _suite_trace_reversal_identity(rng):
    # (A~ o A) o (A*A) = det(A) A~
    A = sampling.random_jordan(rng)
    At = A.trace_reversal()
    lhs = jordan_product(jordan_product(At, A), freudenthal_product(A, A))
    resid = lhs - At * A.det()
    return resid.norm() / (1.0 + A.norm()) ** 4


@_suite(1e-9)
def _suite_polarized_closure(rng):
    A, B = (rank1_from_vector(sampling.random_vector(rng, span=4)) for _ in range(2))
    AxB = freudenthal_product(A, B)
    resid = freudenthal_product(AxB, AxB)
    return resid.norm() / (1.0 + A.norm() + B.norm()) ** 4


@_suite(1e-10)
def _suite_trace_inner_product(rng):
    # (v^dag w)(w^dag v) = tr(v v^dag o w w^dag) for associating components
    v, w = (sampling.random_vector(rng, span=4) for _ in range(2))
    vw = v.dagger_dot(w)
    lhs = (vw * vw.conjugate()).real
    rhs = jordan_product(rank1_from_vector(v), rank1_from_vector(w)).trace()
    scale = 1.0 + v.norm2() * w.norm2()
    return abs(lhs - rhs) / scale


@_suite(1e-10)
def _suite_det_consistency(rng):
    # det A = tr((A * A) o A) / 3
    A = sampling.random_jordan(rng)
    det_via_trace = jordan_product(freudenthal_product(A, A), A).trace() / 3.0
    return abs(A.det() - det_via_trace) / (1.0 + A.norm()) ** 3


@_suite(1e-8)
def _suite_decomposition(rng):
    A = sampling.random_jordan(rng)
    dec = decompose(A)
    resid = max(
        max(dec.residuals["eigen"]),
        dec.residuals["orthogonality"],
        dec.residuals["completeness"],
        dec.residuals["reconstruction"],
    )
    return resid / (1.0 + A.norm())


def _offdiag_associator(P: JordanMatrix) -> float:
    """|[a, b, c]| of the off-diagonal entries of P: zero exactly when they
    lie in a common associative subalgebra, as for every primitive idempotent."""
    return associator(P.a, P.b, P.c).norm()


@_suite(1e-8)
def _suite_cayley_plane(rng):
    # Decomposition idempotents are points: P*P = 0 and tr P = 1, P o P = P,
    # and their off-diagonal components associate.
    A = sampling.random_jordan(rng)
    return max(max(freudenthal_product(P, P).norm() + abs(P.trace() - 1.0),
                   (jordan_product(P, P) - P).norm(), _offdiag_associator(P))
               for P in decompose(A).idempotents)


@_suite(1e-8)
def _suite_double_root(rng):
    # decompose's eigenmatrices, recomputed and as reported, and the paper's
    # orthogonal-vector split V1, V2 of the double root: A o V = lambda V,
    # V1 o V2 = 0
    A, lam, _, _ = sampling.random_double_root_matrix(rng)
    dec = decompose(A)
    V1, V2 = double_root_split(A, lam)
    pairs = (*zip(dec.eigenvalues, dec.idempotents), (lam, V1), (lam, V2))
    eigen = max((jordan_product(A, P) - P * lam_i).norm() for lam_i, P in pairs)
    return max(max(eigen, *dec.residuals["eigen"]) / (1.0 + A.norm()),
               jordan_product(V1, V2).norm())


@_suite(1e-9)
def _suite_f4_invariants(rng):
    # tr, sigma and det at every reflection step: the drift of each over
    # (1 + |A|)^degree, and of all three over 1 + |A|^3
    A = sampling.random_jordan(rng)
    poly, nrm = char_poly(A), A.norm()
    scales = (1.0 + nrm, (1.0 + nrm) ** 2, (1.0 + nrm) ** 3)
    worst = 0.0
    for B in _reflected(A):
        drift = [abs(x - x0) for x, x0 in zip(char_poly(B), poly)]
        worst = max(worst, max(drift) / (1.0 + nrm ** 3), *(d / s for d, s in zip(drift, scales)))
    return worst


@_suite(1e-8)
def _suite_f4_offdiagonal(rng):
    A = sampling.random_jordan(rng)
    res = diagonalize(A)
    roots = sorted(solve_characteristic(*char_poly(A)).roots)
    diag = sorted(res.diagonal)
    err = max(abs(x - y) for x, y in zip(diag, roots))
    return max(res.residual, err) / (1.0 + A.norm())


@_suite(1e-8)
def _suite_oracle_octonionic(rng):
    A = sampling.random_jordan(rng)
    report = modified_char_check(A)
    scale = (1.0 + A.norm()) ** 3
    resid = 0.0 if report.passed and len(report.clusters) <= 6 else 1.0
    # the matrix's own eigenvalues satisfy the unmodified equation
    roots = np.array(solve_characteristic(*char_poly(A)).roots)
    return max(resid, *(abs(_invariants(A._arr, roots)[2]) / scale).tolist())


@_suite(1e-8)
def _suite_oracle_quaternionic(rng):
    # Associative degeneration: one r-group collapses onto zero (the family
    # of the matrix's own eigenvalues); the other carries the constant
    # offset det(conj(A)) - det(A) of the entrywise-conjugate family.
    A = sampling.random_jordan(rng, span=4)
    report = modified_char_check(A)
    scale = (1.0 + A.norm()) ** 3
    rs = [abs(r) for _, _, r in report.clusters]
    resid = min(rs) / scale if rs else 1.0
    if not report.passed:
        resid = max(resid, 1.0)
    return resid


@_suite(1e-10)
def _suite_dirac_roundtrip(rng):
    P, _, _ = sampling.random_null_hermitian2(rng)
    theta, sign = dirac_solve(P)
    recon = Hermitian2.from_outer(theta) * float(sign)
    return (P - recon).norm() / (1.0 + P.norm())


@_suite(1e-9)
def _suite_rank_one_packing(rng):
    theta = sampling.random_complex_theta(rng)
    xi = sampling.random_octonion(rng)
    _, PP = psi_pack(theta, xi)
    resid = freudenthal_product(PP, PP).norm()
    return resid / (1.0 + PP.norm()) ** 2


@_suite(0.0, combine=operator.add)
def _suite_psquare_class(rng):
    # mismatched classes, summed over the samples
    A = sampling.random_jordan(rng)
    cls = classify_psquare(A).p
    dec = decompose(A)
    top = max(abs(x) for x in dec.eigenvalues)
    nonzero = sum(1 for lam in dec.eigenvalues if abs(lam) > 1e-8 * max(1.0, top))
    return float(cls != nonzero) + sum(classify_psquare(B).p != cls for B in _reflected(A))


_SUITES = (
    ("moufang", _suite_moufang),
    ("characteristic-equation", _suite_char_equation),
    ("springer-identity", _suite_springer),
    ("trace-reversal-identity", _suite_trace_reversal_identity),
    ("polarized-closure", _suite_polarized_closure),
    ("trace-inner-product", _suite_trace_inner_product),
    ("det-consistency", _suite_det_consistency),
    ("spectral-decomposition", _suite_decomposition),
    ("cayley-plane-idempotents", _suite_cayley_plane),
    ("double-root-split", _suite_double_root),
    ("f4-invariants", _suite_f4_invariants),
    ("f4-diagonalization", _suite_f4_offdiagonal),
    ("oracle-octonionic", _suite_oracle_octonionic),
    ("oracle-quaternionic", _suite_oracle_quaternionic),
    ("dirac-roundtrip", _suite_dirac_roundtrip),
    ("rank-one-packing", _suite_rank_one_packing),
    ("psquare-class", _suite_psquare_class),
)


def _check_request(count: int, seed: int) -> None:
    if count < 1 or seed < 0:
        raise ValueError(f"need count >= 1 and seed >= 0, got count {count}, seed {seed}")


def run_verification(count: int = 1000, seed: int = 42) -> VerifyReport:
    """Run every suite with per-suite deterministic sample streams."""
    _check_request(count, seed)
    rows = []
    for index, (name, residual) in enumerate(_SUITES):
        worst = _fold(residual, np.random.default_rng([seed, index]), count)
        rows.append(CheckRow(name=name, samples=count, max_residual=worst,
                             threshold=residual.threshold, passed=worst <= residual.threshold))
    rows = tuple(rows)
    return VerifyReport(
        seed=seed, count=count, rows=rows, passed=all(r.passed for r in rows)
    )

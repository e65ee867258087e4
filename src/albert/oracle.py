"""Real 24x24 oracle for the Jordan eigenvalue problem.

Left multiplication v -> A v by a Jordan matrix is a linear map on the
24-dimensional real vector space of octonion 3-vectors.  Under the inner
product Re(v-dagger w) it is symmetric, so it has 24 real eigenvalues -- an
independent, octonion-free cross-check on the Jordan machinery.

The connection to the Jordan spectrum runs through the *modified*
characteristic equation: each eigenvalue cluster lambda_i of the real matrix
satisfies

    det(A - lambda_i I) + r_i = 0

for a residual r_i that is not zero in general.  Empirically the r_i take at
most two values of opposite sign (both zero exactly when the entries of A
lie in an associative subalgebra), while the true Jordan eigenvalues -- which
need not appear in the 24x24 spectrum at all -- satisfy the unmodified
equation det(A - lambda I) = 0.

The eigenvalues come from LAPACK (``numpy.linalg.eigvalsh``), so the oracle
shares no code path with the Jordan-side solvers.  The tail after the
eigensolve handles at most 24 numbers, where a numpy call costs more than
its arithmetic, so it is one pass over Python floats: :func:`cluster_values`
finds the cluster boundaries with one scan of the sorted spectrum, the
residuals of all clusters come from one call of the shifted-determinant
kernel behind ``JordanMatrix.det``, and the residuals are grouped by the same
scan.  The check runs on A / 2^e at unit scale, and each cluster's lambda
and r are multiplied back by 2^e and 2^3e.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import _rescale, _unit_scale
from .jordan import JordanMatrix, _embed, _frob, _invariants, _unpack
from .octonion import _norm

__all__ = [
    "embed",
    "cluster_values",
    "OracleReport",
    "modified_char_check",
]

#: Relative gap (fraction of the spectral range) separating eigenvalue clusters.
CLUSTER_GAP_RTOL = 1e-6

#: Gate on the r-cluster spread and sign test, relative to the cubic scale of A.
R_COLLAPSE_RTOL = 1e-6


def embed(A: JordanMatrix) -> np.ndarray:
    """The 24x24 real symmetric matrix of v -> A v.

    Coordinates are slot-major: component 8*i + k is the coefficient of e_k
    in the i-th octonion slot.  Symmetry is exact because the adjoint of
    left multiplication by x is left multiplication by conj(x), matching the
    Hermitian layout of A.
    """
    return _embed(A.to_array())


def cluster_values(values: np.ndarray, gap: float) -> list[tuple[float, int]]:
    """Group sorted values whose consecutive gaps stay within ``gap``.

    Returns (mean, count) per cluster, in the order of the input sort, each
    mean with the bits of numpy's ``mean()`` of its run.
    """
    return _clusters(np.asarray(values, dtype=float).tolist(), gap)


def _clusters(vals: list[float], gap: float) -> list[tuple[float, int]]:
    cuts = [i for i in range(1, len(vals)) if abs(vals[i] - vals[i - 1]) > gap]
    bounds = zip([0, *cuts], [*cuts, len(vals)]) if vals else ()
    return [(_sum(vals[i:j]) / (j - i), j - i) for i, j in bounds]


def _sum(run: list[float]) -> float:
    """numpy's ``add.reduce`` of the run, bit for bit.  Below eight terms
    numpy adds in order from 0.0 (the base case of its pairwise sum), which
    a Python loop reproduces in a fraction of the call; the builtin ``sum``
    does not, as it compensates from Python 3.12 on."""
    if len(run) >= 8:
        return float(np.add.reduce(run))
    total = 0.0
    for x in run:
        total += x
    return total


class OracleReport(NamedTuple):
    """Eigenvalue clusters of the 24x24 embedding with their modified
    characteristic residuals r = -det(A - lambda I)."""

    clusters: tuple[tuple[float, int, float], ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "clusters": [
                {"lambda": float(lam), "mult": int(mult), "r": float(r)}
                for lam, mult, r in self.clusters
            ],
            "pass": bool(self.passed),
        }


def modified_char_check(A: JordanMatrix) -> OracleReport:
    """Cluster the 24x24 spectrum and test the two-sided r collapse.

    The report passes when the per-cluster residuals r_i fall into at most
    two groups (to tolerance) with r_plus >= 0 >= r_minus.
    """
    (h,), e = _unit_scale((A._arr, 1))
    eigs = np.linalg.eigvalsh(_embed(_unpack(h)))[::-1]
    spread = float(eigs[0] - eigs[-1])
    gap = CLUSTER_GAP_RTOL * spread
    lam_clusters = cluster_values(eigs, gap) if spread > 0 else [(float(eigs[0]), len(eigs))]
    lams, mults = zip(*lam_clusters)
    rs = [-d for d in _invariants(h, lams)[2]]

    r_tol = R_COLLAPSE_RTOL * (1.0 + _norm(_frob(h))) ** 3
    r_groups = _clusters(sorted(rs), r_tol)
    passed = (
        len(r_groups) <= 2
        and r_groups[0][0] <= r_tol
        and r_groups[-1][0] >= -r_tol
    )
    lams, rs = _rescale(e, (lams, 1), (rs, 3))
    return OracleReport(clusters=tuple(zip(lams, mults, rs)), passed=passed)

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

The 24x24 matrix is one product of the coordinates with the exact tensor E
of :mod:`albert.jordan`, and its eigenvalues come from LAPACK
(``numpy.linalg.eigvalsh``), so the oracle shares no code path with the
Jordan-side solvers.  The tail handles at most 24 numbers, so it runs on
the spectrum read once as Python floats: one scan finds the clusters
(:func:`cluster_values`), one call of the shifted-determinant kernel
behind ``JordanMatrix.det`` gives all their residuals, and the same scan
groups those.  The check runs on A / 2^e at unit scale, and each cluster's
lambda and r are multiplied back by 2^e and 2^3e.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import _rescale, _unit_scale
from .jordan import JordanMatrix, _embedding, _frob, _invariants
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
    return (A._arr @ _embedding()).reshape(24, 24)


def cluster_values(values, gap: float) -> list[tuple[float, int]]:
    """Group sorted values (a list or 1-D array) whose consecutive gaps stay within ``gap``.

    Returns (mean, count) per cluster, in the order of the input sort, each
    mean with the bits of numpy's ``mean()`` of its run.
    """
    cuts = [i for i in range(1, len(values)) if abs(values[i] - values[i - 1]) > gap]
    bounds = zip([0, *cuts], [*cuts, len(values)]) if len(values) else ()
    return [(_sum(values[i:j]) / (j - i), j - i) for i, j in bounds]


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
    eigs = np.linalg.eigvalsh((h @ _embedding()).reshape(24, 24)).tolist()[::-1]
    spread = eigs[0] - eigs[-1]
    lams, mults = zip(*(cluster_values(eigs, CLUSTER_GAP_RTOL * spread) if spread > 0
                        else [(eigs[0], len(eigs))]))
    rs = [-d for d in _invariants(h, lams)[2]]

    r_tol = R_COLLAPSE_RTOL * (1.0 + _norm(_frob(h))) ** 3
    r_groups = cluster_values(sorted(rs), r_tol)
    passed = len(r_groups) <= 2 and r_groups[0][0] <= r_tol and r_groups[-1][0] >= -r_tol
    lams, rs = _rescale(e, (lams, 1), (rs, 3))
    return OracleReport(clusters=tuple(zip(lams, mults, rs)), passed=passed)

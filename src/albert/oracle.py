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
shares no code path with the Jordan-side solvers.  The check runs on A / 2^e
at unit scale, and each cluster's lambda and r are multiplied back by 2^e
and 2^3e.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import _rescale, _unit_scale
from .jordan import JordanMatrix, OctVector3, _embed

__all__ = [
    "embed",
    "vector_coords",
    "coords_vector",
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
    return _embed(A._arr)


def vector_coords(v: OctVector3) -> np.ndarray:
    """Flatten an octonion 3-vector to its 24 real coordinates."""
    return v.to_array().reshape(24)


def coords_vector(coords: np.ndarray) -> OctVector3:
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (24,):
        raise ValueError(f"expected 24 coordinates, got shape {coords.shape}")
    return OctVector3.from_array(coords.reshape(3, 8))


def cluster_values(values: np.ndarray, gap: float) -> list[tuple[float, int]]:
    """Group sorted values whose consecutive gaps stay within ``gap``.

    Returns (mean, count) per cluster, in the order of the input sort.
    """
    values = np.asarray(values, dtype=float)
    clusters: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or abs(values[i] - values[i - 1]) > gap:
            chunk = values[start:i]
            clusters.append((float(chunk.mean()), len(chunk)))
            start = i
    return clusters


@dataclass(frozen=True)
class OracleReport:
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
    (a,), e = _unit_scale((A._arr, 1))
    A = JordanMatrix._wrap(a)
    eigs = np.linalg.eigvalsh(embed(A))[::-1]
    spread = float(eigs[0] - eigs[-1])
    gap = CLUSTER_GAP_RTOL * spread
    lam_clusters = cluster_values(eigs, gap) if spread > 0 else [(float(eigs[0]), len(eigs))]

    ident = JordanMatrix.identity()
    rows = tuple(
        (lam, mult, -(A - ident * lam).det()) for lam, mult in lam_clusters
    )

    r_values = np.sort(np.array([r for _, _, r in rows]))
    r_tol = R_COLLAPSE_RTOL * (1.0 + A.norm()) ** 3
    r_groups = cluster_values(r_values, r_tol)
    passed = (
        len(r_groups) <= 2
        and r_groups[0][0] <= r_tol
        and r_groups[-1][0] >= -r_tol
    )
    lams, mults, rs = zip(*rows)
    lams, rs = _rescale(e, (lams, 1), (rs, 3))
    rows = tuple(zip(lams, mults, rs))
    return OracleReport(clusters=rows, passed=bool(passed))

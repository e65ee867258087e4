"""Scale-free checks of every output the benchmark receives.

Each check reads the JSON-shaped form of a result (the same ``to_dict`` layout
the CLI prints) and recomputes its residuals with the package's public
functions, or with the independent algebra in :mod:`inputs`.  It never reads
``residuals`` fields the program reports about itself.  Inputs are divided by
an exact power of two near their norm first, so a residual means the same at
every scale, and each is compared with ``|A|``, ``|A|^2`` or ``|A|^3`` as its
degree requires.  Gates are the package's verify thresholds: 1e-8 for
eigen-data, 1e-9 for invariants, 1e-10 for the 2x2 null factor.

A call ends in one outcome: ``pass``, ``nonfinite``, ``wrong`` (a gate
failed), ``albert:<AlbertError subclass>`` or ``uncaught:<exception type>``.
"""

from __future__ import annotations

import math

import numpy as np

from albert import (
    AlbertError,
    JordanMatrix,
    char_poly,
    freudenthal_product,
    jordan_product,
    sandwich,
)

import inputs

EIGEN_GATE = 1e-8
INVARIANT_GATE = 1e-9
DIRAC_GATE = 1e-10
ZERO_RTOL = 1e-8  # an eigenvalue counts as nonzero above this share of the largest


class Subject:
    """A matrix prepared for checking: unit-scale copy, norms and reference."""

    def __init__(self, case: inputs.Case):
        X = case.X
        nrm = inputs.safe_norm(X)
        self.e = math.frexp(nrm)[1] if nrm > 0 else 0
        self.s = math.ldexp(1.0, self.e)
        self.Xu = X / self.s
        self.n = inputs.safe_norm(self.Xu)
        self.A = JordanMatrix.from_dict(inputs.to_dict(X))
        self.Au = JordanMatrix.from_dict(inputs.to_dict(self.Xu))
        self.ref = None if case.ref is None else np.sort(self.unit(case.ref))[::-1]
        tr = float(np.trace(self.Xu[:, :, 0]))
        self.invariants = (tr, 0.5 * (tr * tr - self.n * self.n), inputs.det(self.Xu))

    def unit(self, x, degree: int = 1):
        """x divided by s**degree exactly, without forming s**degree."""
        return np.ldexp(np.asarray(x, dtype=float), -degree * self.e)


def outcome_of_exception(exc: BaseException) -> str:
    prefix = "albert" if isinstance(exc, AlbertError) else "uncaught"
    return f"{prefix}:{type(exc).__name__}"


def _verdict(residuals: list[tuple[float, float]]) -> tuple[str, float]:
    """(outcome, worst residual); NaN-safe because it tests x <= gate."""
    worst = max((r for r, _ in residuals), default=0.0)
    if not all(math.isfinite(r) for r, _ in residuals):
        return "nonfinite", math.inf
    if all(r <= gate for r, gate in residuals):
        return "pass", worst
    return "wrong", worst


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def _spectrum_residual(values, ref, n) -> float:
    return float(np.max(np.abs(np.sort(np.asarray(values))[::-1] - ref))) / n


def _invariant_residuals(sub: Subject, tr, sigma, det) -> list[tuple[float, float]]:
    """Unit-scale invariants against the independently computed ones."""
    n = sub.n
    t0, s0, d0 = sub.invariants
    return [
        (abs(tr - t0) / n, INVARIANT_GATE),
        (abs(sigma - s0) / n**2, INVARIANT_GATE),
        (abs(det - d0) / n**3, INVARIANT_GATE),
    ]


def _unit_invariants(sub: Subject, out: dict) -> list[tuple[float, float]]:
    return _invariant_residuals(sub, float(sub.unit(out["trace"])),
                                float(sub.unit(out["sigma"], 2)), float(sub.unit(out["det"], 3)))


def check_charpoly(out: dict, sub: Subject, ref) -> tuple[str, float]:
    roots = out["roots"]
    if not _finite(out["trace"], out["sigma"], out["det"], roots):
        return "nonfinite", math.inf
    res = _unit_invariants(sub, out)
    lam = sub.unit(roots)
    if ref is not None:
        res.append((_spectrum_residual(lam, ref, sub.n), EIGEN_GATE))
    else:
        ident = np.zeros((3, 3, 8))
        ident[[0, 1, 2], [0, 1, 2], 0] = 1.0
        for r in lam:
            res.append((abs(inputs.det(sub.Xu - r * ident)) / sub.n**3, EIGEN_GATE))
    return _verdict(res)


def check_decompose(out: dict, sub: Subject, ref) -> tuple[str, float]:
    lam = np.asarray(out["eigenvalues"], dtype=float)
    Ps = [JordanMatrix.from_dict(d) for d in out["idempotents"]]
    if not _finite(lam, *(P.to_array() for P in Ps)):
        return "nonfinite", math.inf
    lam = sub.unit(lam)
    A, n = sub.Au, sub.n
    total = Ps[0] + Ps[1] + Ps[2]
    recon = Ps[0] * lam[0] + Ps[1] * lam[1] + Ps[2] * lam[2]
    res = [
        (max((jordan_product(A, P) - P * l).norm() for l, P in zip(lam, Ps)) / n, EIGEN_GATE),
        (max(jordan_product(Ps[i], Ps[j]).norm() for i, j in ((0, 1), (0, 2), (1, 2))),
         EIGEN_GATE),
        ((total - JordanMatrix.identity()).norm(), EIGEN_GATE),
        ((recon - A).norm() / n, EIGEN_GATE),
        (max(freudenthal_product(P, P).norm() + abs(P.trace() - 1.0) for P in Ps), EIGEN_GATE),
    ]
    if ref is not None:
        res.append((_spectrum_residual(lam, ref, n), EIGEN_GATE))
    return _verdict(res)


def idempotent_defect(out: dict) -> float:
    Ps = [JordanMatrix.from_dict(d) for d in out["idempotents"]]
    return max((jordan_product(P, P) - P).norm() for P in Ps)


def check_diagonalize(out: dict, sub: Subject, ref) -> tuple[str, float]:
    diag = np.asarray(out["diagonal"], dtype=float)
    steps = [JordanMatrix.from_dict(d) for d in out["steps"]]
    if not _finite(diag, out["residual"], *(M.to_array() for M in steps)):
        return "nonfinite", math.inf
    diag = sub.unit(diag)
    n = sub.n
    B = sub.Au
    res = [(float(sub.unit(out["residual"])) / n, EIGEN_GATE)]
    for M in steps:
        res.append(((jordan_product(M, M) - JordanMatrix.identity()).norm(), EIGEN_GATE))
        B = sandwich(M, B)
    res.append((float(np.max(np.abs(np.array(B.diagonal()) - diag))) / n, EIGEN_GATE))
    res.append((B.offdiag_norm() / n, EIGEN_GATE))
    res += _invariant_residuals(sub, *char_poly(B))
    if ref is not None:
        res.append((_spectrum_residual(diag, ref, n), EIGEN_GATE))
    return _verdict(res)


def check_classify(out: dict, sub: Subject, ref) -> tuple[str, float]:
    if not _finite(out["det"], out["sigma"], out["trace"]):
        return "nonfinite", math.inf
    res = _unit_invariants(sub, out)
    if ref is not None:
        top = float(np.max(np.abs(ref)))
        nonzero = int(np.sum(np.abs(ref) > ZERO_RTOL * top))
        res.append((0.0 if out["p"] == nonzero else 1.0, 0.0))
    return _verdict(res)


def check_oracle(out: dict, sub: Subject, span4: bool) -> tuple[str, float]:
    clusters = out["clusters"]
    lam = np.array([c["lambda"] for c in clusters], dtype=float)
    r = np.array([c["r"] for c in clusters], dtype=float)
    if not _finite(lam, r):
        return "nonfinite", math.inf
    if not out["pass"] or sum(c["mult"] for c in clusters) != 24:
        return "wrong", math.inf
    lam, r, n = sub.unit(lam), sub.unit(r, 3), sub.n
    eigs = np.sort(np.linalg.eigvalsh(inputs.embed(sub.Xu)))[::-1]
    ident = np.zeros((3, 3, 8))
    ident[[0, 1, 2], [0, 1, 2], 0] = 1.0
    res, start = [], 0
    for c, l, ri in zip(clusters, lam, r):
        block = eigs[start:start + c["mult"]]
        start += c["mult"]
        res.append((float(np.max(np.abs(block - l))) / n, EIGEN_GATE))
        res.append((abs(ri + inputs.det(sub.Xu - l * ident)) / n**3, EIGEN_GATE))
    if span4:
        res.append((float(np.min(np.abs(r))) / n**3, EIGEN_GATE))
    return _verdict(res)


def check_dirac(out: dict, momentum: dict) -> tuple[str, float]:
    t1, t2 = (np.asarray(t, dtype=float) for t in out["theta"])
    if not _finite(t1, t2):
        return "nonfinite", math.inf
    sign = out["sign"]
    got = np.concatenate([[sign * (t1 @ t1), sign * (t2 @ t2)],
                          np.sqrt(2.0) * sign * inputs.omul(t1, t2 * inputs.CONJ)])
    want = np.concatenate([[momentum["s"], momentum["t"]],
                           np.sqrt(2.0) * np.asarray(momentum["z"])])
    return _verdict([(inputs.safe_norm(got - want) / inputs.safe_norm(want), DIRAC_GATE)])

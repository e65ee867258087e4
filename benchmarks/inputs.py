"""Seeded inputs with spectra known by construction, and reference algebra.

Everything here is independent of the ``albert`` package: octonion products,
determinants and the 24x24 left-multiplication embedding are recomputed from
the Cayley-Dickson formula

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

on quaternion pairs, with e0..e3 = (1, i, j, k) and e4..e7 = (0, 1)(1, i, j, k),
the convention the package documents.  The program under test receives only
``JordanMatrix`` objects built from these arrays, or their JSON form.

Matrices are ``(3, 3, 8)`` coefficient arrays.  A spectrum is fixed first and
the matrix is obtained from ``diag(lambda)`` by nested reflections
``X -> M (X M)``, each ``M`` a Hermitian involution with entries in one random
complex subalgebra.  Three reflections in independent subalgebras give a full
octonionic matrix with the chosen eigenvalues (to rounding).
"""

from __future__ import annotations

import math

import numpy as np

CONJ = np.array([1.0, -1, -1, -1, -1, -1, -1, -1])
# Exponents k of the 2^k rescalings: a grid over [-600, 600], plus the edges
# where today's code starts to fail (InconsistentError from 2^-20 to 2^-28,
# overflow from 2^170).
SCALE_GRID = sorted({*np.linspace(-600, 600, 41).round().astype(int).tolist(), -28, -20, 170})
GAPS = tuple(10.0 ** -k for k in range(2, 10))                 # relative gaps 1e-2 .. 1e-9


def _qmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    a0, a1, a2, a3 = np.moveaxis(x, -1, 0)
    b0, b1, b2, b3 = np.moveaxis(y, -1, 0)
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=-1)


def _qconj(x: np.ndarray) -> np.ndarray:
    return x * CONJ[:4]


def omul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Octonion product on arrays of shape (..., 8), broadcasting."""
    a, b = x[..., :4], x[..., 4:]
    c, d = y[..., :4], y[..., 4:]
    return np.concatenate(
        [_qmul(a, c) - _qmul(_qconj(d), b), _qmul(d, a) + _qmul(b, _qconj(c))], axis=-1
    )


def matmul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Ordinary product of two (3, 3, 8) octonion matrices."""
    return omul(X[:, :, None, :], Y[None, :, :, :]).sum(axis=1)


def hermitize(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + X.transpose(1, 0, 2) * CONJ)


def safe_norm(x: np.ndarray) -> float:
    """Euclidean norm that neither overflows nor underflows for finite x."""
    m = float(np.max(np.abs(x))) if x.size else 0.0
    if m == 0.0 or not math.isfinite(m):
        return m
    return m * float(np.linalg.norm(x / m))


def det(X: np.ndarray) -> float:
    """p m n + 2 Re(b (a c)) - n |a|^2 - m |b|^2 - p |c|^2 on the upper layout."""
    p, m, n = X[0, 0, 0], X[1, 1, 0], X[2, 2, 0]
    a, b, c = X[0, 1], X[2, 0], X[1, 2]
    bac = omul(b, omul(a, c))[0]
    return float(p * m * n + 2.0 * bac - n * (a @ a) - m * (b @ b) - p * (c @ c))


def embed(X: np.ndarray) -> np.ndarray:
    """24x24 real matrix of v -> X v, slot-major like the package's oracle."""
    basis = np.eye(8)
    blocks = omul(X[:, :, None, :], basis[None, None, :, :])  # [i, j, a, c]
    return blocks.transpose(0, 3, 1, 2).reshape(24, 24)


def _unit_imaginary(rng: np.random.Generator) -> np.ndarray:
    v = np.zeros(8)
    v[1:] = rng.normal(size=7)
    return v / np.linalg.norm(v)


def _complex_to_oct(z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Map complex entries x + iy to x e0 + y q for a unit imaginary q."""
    z = np.asarray(z)
    return np.real(z)[..., None] * np.eye(8)[0] + np.imag(z)[..., None] * q


def _involution(rng: np.random.Generator) -> np.ndarray:
    """Hermitian M with M^2 = I over a random complex subalgebra."""
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(g)
    signs = np.array([1.0, 1.0, -1.0]) * (1 if rng.uniform() < 0.5 else -1)
    m = (u * signs) @ u.conj().T
    return hermitize(_complex_to_oct(m, _unit_imaginary(rng)))


def from_spectrum(rng: np.random.Generator, lam, reflections: int = 3) -> np.ndarray:
    X = np.zeros((3, 3, 8))
    for i in range(3):
        X[i, i, 0] = lam[i]
    for _ in range(reflections):
        M = _involution(rng)
        X = hermitize(matmul(M, matmul(X, M)))
    return X


def _spread_spectrum(rng: np.random.Generator) -> np.ndarray:
    """Three eigenvalues in [-1, 1], pairwise and from zero at least 0.1 apart."""
    while True:
        lam = rng.uniform(-1.0, 1.0, 3)
        gaps = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(3, 1)]
        if gaps.min() >= 0.1 and np.abs(lam).min() >= 0.1:
            return lam


def random_octonionic(rng: np.random.Generator, span: int = 8) -> np.ndarray:
    """Entries uniform on [-1, 1] in the first `span` coefficients."""
    X = np.zeros((3, 3, 8))
    for i in range(3):
        X[i, i, 0] = rng.uniform(-1.0, 1.0)
    for i, j in ((0, 1), (2, 0), (1, 2)):
        X[i, j, :span] = rng.uniform(-1.0, 1.0, span)
        X[j, i] = X[i, j] * CONJ
    return X


def known_spectrum(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    lam = _spread_spectrum(rng)
    return from_spectrum(rng, lam), np.sort(lam)[::-1]


def double_root(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """lam I + s w w-dagger with w in a random quaternionic subalgebra."""
    p = _unit_imaginary(rng)
    q = _unit_imaginary(rng)
    q = q - (q @ p) * p
    q /= np.linalg.norm(q)
    basis = np.stack([np.eye(8)[0], p, q, omul(p, q)])
    while True:
        lam = rng.uniform(-1.0, 1.0)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        w = rng.uniform(-1.0, 1.0, (3, 4)) @ basis
        mu = lam + sign * float(np.sum(w * w))
        if abs(lam) >= 0.1 and abs(mu) >= 0.1 and abs(mu - lam) >= 0.1:
            break
    X = sign * omul(w[:, None, :], (w * CONJ)[None, :, :])
    for i in range(3):
        X[i, i] = 0.0
        X[i, i, 0] = lam + sign * float(w[i] @ w[i])
    return hermitize(X), np.sort([lam, lam, mu])[::-1]


def triple_root(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    lam = rng.uniform(0.1, 1.0) * (1 if rng.uniform() < 0.5 else -1)
    X = np.zeros((3, 3, 8))
    for i in range(3):
        X[i, i, 0] = lam
    return X, np.array([lam, lam, lam])


def near_degenerate(rng: np.random.Generator, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Two eigenvalues a relative gap apart (gap times the largest |lambda|)."""
    while True:
        x, y = rng.uniform(-1.0, 1.0, 2)
        if abs(x) >= 0.1 and abs(y) >= 0.1 and abs(x - y) >= 0.1:
            break
    top = max(abs(x), abs(y))
    lam = np.array([x, x + gap * top, y])
    return from_spectrum(rng, lam), np.sort(lam)[::-1]


def null_momentum(rng: np.random.Generator) -> dict:
    """sign * theta theta-dagger with theta in a random complex subalgebra."""
    q = _unit_imaginary(rng)
    t1, t2 = (_complex_to_oct(complex(*rng.uniform(-1.0, 1.0, 2)), q) for _ in range(2))
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    z = sign * omul(t1, t2 * CONJ)
    return {"s": sign * float(t1 @ t1), "t": sign * float(t2 @ t2), "z": z.tolist()}


def to_dict(X: np.ndarray) -> dict:
    """The package's JSON layout, read from the upper triangle."""
    return {
        "p": float(X[0, 0, 0]), "m": float(X[1, 1, 0]), "n": float(X[2, 2, 0]),
        "a": X[0, 1].tolist(), "b": X[2, 0].tolist(), "c": X[1, 2].tolist(),
    }


class Case:
    """One input: its array, reference spectrum (or None) and mix category."""

    __slots__ = ("X", "ref", "kind", "gap")

    def __init__(self, X, ref, kind, gap=None):
        self.X, self.ref, self.kind, self.gap = X, ref, kind, gap


def generic_cases(rng: np.random.Generator, n: int) -> list[Case]:
    return [Case(random_octonionic(rng), None, "generic") for _ in range(n)]


def spectrum_edge_cases(rng: np.random.Generator, per_gap: int) -> list[Case]:
    """Mix: near-degenerate 8*per_gap, double 5*per_gap, triple 2*per_gap,
    scaled len(SCALE_GRID); with per_gap = 5 that is 40/25/10/44 of 119."""
    cases = []
    for gap in GAPS:
        for _ in range(per_gap):
            X, ref = near_degenerate(rng, gap)
            cases.append(Case(X, ref, "near", gap))
    for _ in range(5 * per_gap):
        cases.append(Case(*double_root(rng), "double"))
    for _ in range(2 * per_gap):
        cases.append(Case(*triple_root(rng), "triple"))
    for k in SCALE_GRID:
        X, ref = known_spectrum(rng)
        f = math.ldexp(1.0, int(k))
        cases.append(Case(X * f, ref * f, "scaled"))
    return cases


def oracle_cases(rng: np.random.Generator, n: int) -> list[Case]:
    """Three octonionic (span 8) to two quaternionic (span 4), interleaved.

    Not half each: the two families' costs barely overlap, and at half each
    the median would sit in the gap between them."""
    spans = [4 if i % 5 in (1, 3) else 8 for i in range(n)]
    return [Case(random_octonionic(rng, s), None, f"span{s}") for s in spans]

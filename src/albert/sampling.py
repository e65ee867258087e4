"""Seeded random generators for matrices, vectors, and null momenta.

Every sampler draws each free coefficient uniformly from [-1, 1] off a
numpy Generator, so a fixed seed reproduces the exact sample stream; the
verification CLI and the test suites rely on this.  `span` limits which
octonion coordinates are populated: 2 gives a complex slice, 4 a
quaternionic one (components associate), 8 the full algebra.
"""

from __future__ import annotations

import numpy as np

from .dirac import Hermitian2
from .jordan import JordanMatrix, OctVector3, rank1_from_vector
from .octonion import Octonion


def random_octonion(rng: np.random.Generator, span: int = 8) -> Octonion:
    """Octonion with the first `span` coefficients uniform on [-1, 1]."""
    coeffs = np.zeros(8)
    coeffs[:span] = rng.uniform(-1.0, 1.0, span)
    return Octonion(coeffs)


def random_unit_imaginary(rng: np.random.Generator) -> Octonion:
    """Unit octonion with zero real part; squares to -1."""
    coeffs = np.zeros(8)
    vec = rng.uniform(-1.0, 1.0, 7)
    while np.linalg.norm(vec) < 1e-3:  # reject near-zero draws
        vec = rng.uniform(-1.0, 1.0, 7)
    coeffs[1:] = vec / np.linalg.norm(vec)
    return Octonion(coeffs)


def random_jordan(rng: np.random.Generator, span: int = 8) -> JordanMatrix:
    """Hermitian 3x3 matrix with uniform diagonal p, m, n, then a, b, c."""
    draws = rng.uniform(-1.0, 1.0, 3 + 3 * span)
    h = np.zeros(27)
    h[:3] = draws[:3]
    h[3:].reshape(3, 8)[:, :span] = draws[3:].reshape(3, span)
    return JordanMatrix._wrap(h)


def random_vector(rng: np.random.Generator, span: int = 4) -> OctVector3:
    """3-component column; the quaternionic default keeps components associating."""
    arr = np.zeros((3, 8))
    arr[:, :span] = rng.uniform(-1.0, 1.0, (3, span))
    return OctVector3._wrap(arr)


def random_double_root_matrix(
    rng: np.random.Generator,
) -> tuple[JordanMatrix, float, int, OctVector3]:
    """Matrix lam*I + sign*w w^dagger with an exact repeated eigenvalue lam.

    Returns (A, lam, sign, w); w is quaternionic so the rank-one square is
    exact.  The simple eigenvalue is lam + sign*|w|^2.
    """
    lam = rng.uniform(-1.0, 1.0)
    sign = 1 if rng.uniform() < 0.5 else -1
    w = random_vector(rng, span=4)
    A = JordanMatrix.diag(lam, lam, lam) + rank1_from_vector(w) * float(sign)
    return A, lam, sign, w


def random_complex_theta(
    rng: np.random.Generator,
) -> tuple[Octonion, Octonion]:
    """2-component column with both components in one random complex subalgebra."""
    q = random_unit_imaginary(rng)
    mk = lambda: Octonion.from_real(rng.uniform(-1.0, 1.0)) + rng.uniform(-1.0, 1.0) * q
    return mk(), mk()


def random_null_hermitian2(
    rng: np.random.Generator,
) -> tuple[Hermitian2, tuple[Octonion, Octonion], int]:
    """Null momentum sign * theta theta^dagger with complex-subalgebra theta."""
    theta = random_complex_theta(rng)
    sign = 1 if rng.uniform() < 0.5 else -1
    return Hermitian2.from_outer(theta) * float(sign), theta, sign

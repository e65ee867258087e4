import math

import numpy as np
import pytest

from albert import sampling
from albert.cubic import solve_characteristic
from albert.exceptions import ZeroVectorError
from albert.f4 import build_m1_m2, diagonalize
from albert.jordan import (
    JordanMatrix,
    OctVector3,
    _frob,
    _op,
    _pack,
    char_poly,
    jordan_product,
    matvec,
    phase_align,
    sandwich,
)
from albert.octonion import CONJ_SIGNS, Octonion, e
from albert.spectral import _reflect

from closeness import close


def all_ones():
    one = Octonion.from_real(1.0)
    return JordanMatrix(a=one, b=one, c=one)


def is_reflection(M, atol=1e-10):
    """Hermitian involution within a single complex subalgebra."""
    assert (jordan_product(M, M) - JordanMatrix.identity()).norm() <= atol
    # involution: sandwiching twice is the identity map
    rng = np.random.default_rng(0)
    A = sampling.random_jordan(rng)
    assert close(sandwich(M, sandwich(M, A)), A, atol * (1 + A.norm()))


class TestReflections:
    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            build_m1_m2(OctVector3((Octonion.zero(),) * 3))

    def test_small_vectors_give_the_same_reflections(self):
        v = phase_align(sampling.random_vector(np.random.default_rng(49), span=4))
        want = build_m1_m2(v)
        for scale in (1e-13, 2.0**-600, 2.0**600):
            for got, M in zip(build_m1_m2(v * scale), want):
                assert got.isclose(M)

    def test_unaligned_vector_rejected(self):
        v = OctVector3((Octonion.from_real(1.0), Octonion.zero(), e(1)))
        with pytest.raises(ValueError):
            build_m1_m2(v)

    def test_maps_unit_vector_to_e3(self):
        rng = np.random.default_rng(50)
        target = OctVector3((Octonion.zero(), Octonion.zero(), Octonion.from_real(1.0)))
        for _ in range(200):
            v = phase_align(sampling.random_vector(rng, span=4))
            v = v * (1.0 / v.norm())
            m1, m2 = build_m1_m2(v)
            image = matvec(m2, matvec(m1, v))
            assert close(image, target, 1e-10)

    def test_reflections_are_involutions(self):
        rng = np.random.default_rng(51)
        v = phase_align(sampling.random_vector(rng, span=4))
        for M in build_m1_m2(v):
            is_reflection(M)

    def test_degenerate_first_component(self):
        # v = (0, y, 0): N1 = 0 so M1 degenerates to the identity
        v = OctVector3((Octonion.zero(), Octonion.from_real(1.0), Octonion.zero()))
        m1, m2 = build_m1_m2(v)
        assert m1.isclose(JordanMatrix.identity())
        assert not m2.isclose(JordanMatrix.identity())

    def test_degenerate_second_component(self):
        # v = (x, 0, r): M2 degenerates to the identity
        v = OctVector3((Octonion.from_real(0.6), Octonion.zero(), Octonion.from_real(0.8)))
        m1, m2 = build_m1_m2(v)
        assert m2.isclose(JordanMatrix.identity())

    def test_real_entry_vectors_do_not_trip_realness_gate(self):
        # norm2() - real**2 cancels catastrophically for exactly real entries;
        # the gate must see a true zero, not amplified round-off
        rng = np.random.default_rng(52)
        for _ in range(50):
            v = phase_align(sampling.random_vector(rng, span=1))
            build_m1_m2(v)  # must not raise


def m1_m2_by_constructor(v):
    """build_m1_m2 through the validating constructor, as it was written
    before the reflections were laid out as arrays; kept as reference."""
    x, y, r = v.to_array() * (1.0 / v.norm())
    r0, y2 = float(r[0]), float(y @ y)
    n1 = math.sqrt(float(x @ x) + r0**2)
    n2 = math.sqrt(n1 * n1 + y2)
    return (JordanMatrix(p=-r0 / n1, m=1.0, n=r0 / n1, b=x * CONJ_SIGNS * (1.0 / n1)),
            JordanMatrix(p=1.0, m=-n1 / n2, n=n1 / n2, c=y * (1.0 / n2)))


class TestReflectionLayout:
    """The reflections are laid out as arrays, with the bits of the public
    constructor."""

    @pytest.mark.parametrize("span", [8, 4, 1])
    def test_build_m1_m2_equals_constructor_route(self, span):
        rng = np.random.default_rng(53 + span)
        for _ in range(100):
            v = phase_align(sampling.random_vector(rng, span=span))
            got, want = build_m1_m2(v), m1_m2_by_constructor(v)
            for M, W in zip(got, want, strict=True):
                assert M.to_array().tobytes() == W.to_array().tobytes()


def block_diagonal(rng):
    """[[X, 0], [0, n]] with n the smallest root, so M1 = diag(-1, 1, 1) and M2 = I."""
    return JordanMatrix(rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0), -3.0,
                        a=sampling.random_octonion(rng) * 0.25)


class TestReflectionRoute:
    """diagonalize applies each reflection as U_M X = 2 M o (M o X) - X on
    Hermitian coordinates; every reflected matrix, and the diagonal, equal
    the public nested sandwich M (X M) to 1e-15 |A|, including the steps that
    degenerate to the identity (N1 = 0 or |y| = 0; M3 never does, and is
    diag(1, -1, 1) when X is already diagonal)."""

    @staticmethod
    def cases(span):
        rng = np.random.default_rng(60 + span)
        yield from (sampling.random_jordan(rng, span=span) for _ in range(200))
        yield from (JordanMatrix.diag(*d) for d in ((2.0, 1.0, 3.0), (1.0, 2.0, 3.0), (2.0, 3.0, 1.0)))
        yield from (block_diagonal(rng) for _ in range(5))

    @pytest.mark.parametrize("span", [1, 4, 8])
    def test_matches_nested_sandwich(self, span):
        identity_steps = 0
        for A in self.cases(span):
            res = diagonalize(A)
            B, x = A, _pack(A.to_array())
            for M in res.steps:
                B, x = sandwich(M, B), _reflect(x, _op(_pack(M.to_array())))
                assert np.linalg.norm(_frob(x - _pack(B.to_array()))) <= 1e-15 * A.norm()
                identity_steps += close(M, JordanMatrix.identity(), 0.0, 0.0)
            assert np.abs(np.subtract(res.diagonal, B.diagonal())).max() <= 1e-15 * A.norm()
        assert identity_steps >= 3


class TestDiagonalize:
    def test_scalar_matrix_no_steps(self):
        res = diagonalize(JordanMatrix.identity() * 2.5)
        assert res.steps == ()
        assert res.diagonal == (2.5, 2.5, 2.5)
        assert res.residual == 0.0

    def test_triple_root_residual_is_largest_entry(self):
        # both branches report the largest off-diagonal |entry|, not a
        # Frobenius norm of all of them
        A = JordanMatrix.identity() * 2.0 + JordanMatrix(a=e(0) * 1e-9, b=e(1) * 1e-9)
        res = diagonalize(A)
        assert res.steps == ()
        assert res.residual == pytest.approx(1e-9, rel=1e-12)

    def test_already_diagonal(self):
        res = diagonalize(JordanMatrix.diag(1, 2, 3))
        assert res.residual <= 1e-12
        assert sorted(res.diagonal) == pytest.approx([1.0, 2.0, 3.0], abs=1e-10)

    def test_all_ones_frozen(self):
        res = diagonalize(all_ones())
        assert res.residual <= 1e-12
        assert res.diagonal == pytest.approx((-1.0, -1.0, 2.0), abs=1e-12)
        assert len(res.steps) == 3

    def test_seeded_invariants_and_residual(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            A = sampling.random_jordan(rng)
            scale = 1.0 + A.norm()
            tr0, sg0, dt0 = char_poly(A)
            res = diagonalize(A)

            B = A
            for M in res.steps:
                B = sandwich(M, B)
                tr, sg, dt = char_poly(B)
                assert abs(tr - tr0) <= 1e-9 * scale
                assert abs(sg - sg0) <= 1e-9 * scale**2
                assert abs(dt - dt0) <= 1e-9 * scale**3
            assert res.residual <= 1e-8 * scale
            assert B.diagonal() == pytest.approx(res.diagonal)

            roots = solve_characteristic(tr0, sg0, dt0)
            assert sorted(res.diagonal) == pytest.approx(
                sorted(roots.roots), abs=1e-8 * scale
            )

    def test_steps_are_reflections(self):
        rng = np.random.default_rng(54)
        A = sampling.random_jordan(rng)
        for M in diagonalize(A).steps:
            assert (jordan_product(M, M) - JordanMatrix.identity()).norm() <= 1e-9

    def test_double_root_matrices(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            A, lam, sign, w = sampling.random_double_root_matrix(rng)
            res = diagonalize(A)
            scale = 1.0 + A.norm()
            assert res.residual <= 1e-8 * scale
            hits = sum(1 for d in res.diagonal if abs(d - lam) <= 1e-6 * scale)
            assert hits == 2

    def test_real_entry_matrices(self):
        # regression: exactly-real octonion entries once tripped the
        # realness gate inside build_m1_m2 via cancellation noise
        rng = np.random.default_rng(56)
        for _ in range(50):
            A = sampling.random_jordan(rng, span=1)
            res = diagonalize(A)
            assert res.residual <= 1e-8 * (1.0 + A.norm())

    def test_to_dict(self):
        d = diagonalize(all_ones()).to_dict()
        assert sorted(d) == ["diagonal", "residual", "steps"]
        assert len(d["steps"]) == 3

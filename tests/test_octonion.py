import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albert.dirac import Hermitian2
from albert.jordan import JordanMatrix, OctVector3
from albert.octonion import (
    CONJ_SIGNS,
    MUL_INDEX,
    MUL_SIGN,
    MUL_TENSOR,
    Octonion,
    associator,
    e,
    format_octonion,
)

from closeness import close

coeff = st.floats(min_value=-10, max_value=10, allow_nan=False, width=64)
oct_coeffs = st.lists(coeff, min_size=8, max_size=8)


def rand(rng, span=8):
    c = np.zeros(8)
    c[:span] = rng.uniform(-1, 1, span)
    return Octonion(c)


class TestTable:
    def test_pinned_products(self):
        assert e(1) * e(2) == e(3)
        assert e(1) * e(4) == e(5)
        assert e(2) * e(4) == e(6)
        assert e(3) * e(4) == e(7)

    def test_identity_row_and_column(self):
        for k in range(8):
            assert e(0) * e(k) == e(k)
            assert e(k) * e(0) == e(k)

    def test_imaginary_units_square_to_minus_one(self):
        for k in range(1, 8):
            assert e(k) * e(k) == -Octonion.from_real(1.0)

    def test_exact_antisymmetry_off_real_line(self):
        for i in range(1, 8):
            for j in range(1, 8):
                if i == j:
                    continue
                assert MUL_INDEX[i, j] == MUL_INDEX[j, i]
                assert MUL_SIGN[i, j] == -MUL_SIGN[j, i]

    def test_rows_are_signed_permutations(self):
        for i in range(8):
            assert sorted(MUL_INDEX[i]) == list(range(8))
            assert sorted(MUL_INDEX[:, i]) == list(range(8))
            assert set(np.abs(MUL_SIGN[i])) == {1}

    def test_tensor_matches_index_sign_form(self):
        for i in range(8):
            for j in range(8):
                k = MUL_INDEX[i, j]
                assert MUL_TENSOR[i, j, k] == MUL_SIGN[i, j]
                assert np.count_nonzero(MUL_TENSOR[i, j]) == 1

    def test_alternativity_exact_on_basis(self):
        # integer arithmetic: no tolerance
        for i in range(8):
            for j in range(8):
                x, y = e(i), e(j)
                assert np.array_equal(((x * x) * y).coeffs, (x * (x * y)).coeffs)
                assert np.array_equal(((y * x) * x).coeffs, (y * (x * x)).coeffs)

    def test_norm_composition_exact_on_basis(self):
        for i in range(8):
            for j in range(8):
                assert (e(i) * e(j)).norm2() == 1.0

    def test_conj_signs(self):
        assert list(CONJ_SIGNS) == [1] + [-1] * 7


class TestArithmetic:
    def test_add_sub_neg_scalars(self):
        x = Octonion(np.arange(8.0))
        assert (x + 1.0 - 1.0).isclose(x)
        assert (1.0 + x).isclose(x + 1.0)
        assert (1.0 - x).isclose(-(x - 1.0))
        assert (2.0 * x).isclose(x * 2.0)
        assert (x / 2.0).isclose(x * 0.5)

    def test_real_and_conjugate(self):
        x = Octonion.from_real(3.0) + 2.0 * e(1)
        assert x.real == 3.0
        assert x.conjugate().isclose(Octonion.from_real(3.0) - 2.0 * e(1))
        assert (x + x.conjugate()).isclose(Octonion.from_real(2.0 * x.real))

    def test_inverse(self):
        assert Octonion.from_real(2.0).inverse().isclose(Octonion.from_real(0.5))
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rand(rng)
            assert close(x * x.inverse(), Octonion.from_real(1.0), 1e-12)
            assert close(x.inverse() * x, Octonion.from_real(1.0), 1e-12)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            Octonion.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            Octonion.from_real(1.0) / Octonion.zero()
        # one "/ real" rule for every value class: no inf or NaN coefficients
        values = (Octonion.from_real(1.0), OctVector3((1.0, 0.0, 0.0)),
                  JordanMatrix.identity(), Hermitian2.identity())
        for x in values:
            for zero in (0.0, 0):
                with pytest.raises(ZeroDivisionError):
                    x / zero

    def test_small_octonion_has_an_inverse(self):
        x = Octonion.from_real(1e-7)
        assert x.inverse().isclose(Octonion.from_real(1e7))
        assert (Octonion.from_real(2.0) / x).isclose(Octonion.from_real(2e7))

    @pytest.mark.parametrize("k", [-600, -300, -40, -1, 1, 40, 300, 600])
    def test_inverse_exact_under_power_of_two_scaling(self, k):
        rng = np.random.default_rng(2)
        for _ in range(50):
            y = rand(rng)
            got = (y * math.ldexp(1.0, k)).inverse().coeffs
            assert np.array_equal(got, y.inverse().coeffs * math.ldexp(1.0, -k))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Octonion([1.0, 0.0, 0.0, bad, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            Octonion([bad] * 8).inverse()
        with pytest.raises(ValueError, match="finite"):
            Octonion.from_real(bad)

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            e(8)
        with pytest.raises(ValueError):
            Octonion(np.zeros(7))


class TestAlgebraLaws:
    def test_alternativity_floats(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x, y = rand(rng), rand(rng)
            assert ((x * x) * y - x * (x * y)).norm() <= 1e-13
            assert ((y * x) * x - y * (x * x)).norm() <= 1e-13

    def test_moufang(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            x, y, z = rand(rng), rand(rng), rand(rng)
            lhs = ((x * y) * x) * z
            rhs = x * (y * (x * z))
            assert (lhs - rhs).norm() <= 1e-12 * (1.0 + lhs.norm())

    def test_norm_composition_floats(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x, y = rand(rng), rand(rng)
            lhs = (x * y).norm2()
            rhs = x.norm2() * y.norm2()
            assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)

    def test_conjugation_antiautomorphism(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x, y = rand(rng), rand(rng)
            assert (x * y).conjugate().isclose(y.conjugate() * x.conjugate())

    def test_norm_via_conjugate(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rand(rng)
            assert (x * x.conjugate()).isclose(Octonion.from_real(x.norm2()))

    @given(oct_coeffs, oct_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_norm_composition_hypothesis(self, xs, ys):
        x, y = Octonion(np.array(xs)), Octonion(np.array(ys))
        lhs = (x * y).norm2()
        rhs = x.norm2() * y.norm2()
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)

    @given(oct_coeffs, oct_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_distributivity_hypothesis(self, xs, ys):
        x, y = Octonion(np.array(xs)), Octonion(np.array(ys))
        z = Octonion.from_real(1.0) + e(5)
        lhs = (x + y) * z
        rhs = x * z + y * z
        assert (lhs - rhs).norm() <= 1e-9 * (1.0 + x.norm() + y.norm())


class TestAssociator:
    def test_quaternionic_triple_vanishes(self):
        assert associator(e(1), e(2), e(3)).norm() == 0.0

    def test_alternating_arguments(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x, y = rand(rng), rand(rng)
            assert associator(x, x, y).norm() <= 1e-13
            assert associator(x, y, y).norm() <= 1e-13
            assert associator(Octonion.from_real(1.0), x, y).norm() <= 1e-13

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y, z = rand(rng), rand(rng), rand(rng)
            a = associator(x, y, z)
            assert (associator(y, x, z) + a).norm() <= 1e-12
            assert (associator(x, z, y) + a).norm() <= 1e-12

    def test_generic_octonionic_triple_nonzero(self):
        assert associator(e(1), e(2), e(4)).norm() == 2.0


class TestFormatting:
    def test_format_examples(self):
        assert format_octonion(Octonion.zero()) == "0"
        assert format_octonion(Octonion.from_real(1.0)) == "1"
        assert format_octonion(-e(7)) == "-1 e7"
        assert format_octonion(Octonion.from_real(3.0) + 2.0 * e(1)) == "3 + 2 e1"
        assert format_octonion(e(2) - e(5)) == "1 e2 - 1 e5"

    def test_str_and_repr(self):
        x = Octonion.from_real(1.5)
        assert str(x) == "1.5"
        assert "1.5" in repr(x)

    def test_equality_and_isclose(self):
        x = Octonion.from_real(1.0)
        assert x == Octonion.from_real(1.0 + 1e-13)
        assert x != Octonion.from_real(1.1)
        assert x.isclose(Octonion.from_real(1.0))
        assert not x.isclose(e(1))

    def test_coeffs_read_only(self):
        x = e(1)
        with pytest.raises(ValueError):
            x.coeffs[0] = 5.0

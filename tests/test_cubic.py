import math

import numpy as np
import pytest

from albert import sampling
from albert.cubic import CubicRoots, solve_characteristic
from albert.exceptions import ComplexRootsError
from albert.jordan import char_poly


def roots_of(A):
    return solve_characteristic(*char_poly(A))


class TestExactCases:
    def test_distinct_diagonal(self):
        r = solve_characteristic(6.0, 11.0, 6.0)  # (t-1)(t-2)(t-3)
        assert r.multiplicity == "distinct"
        assert np.allclose(r.roots, (3.0, 2.0, 1.0), atol=1e-12)
        assert r.repeated is None
        assert len(r.simple) == 3

    def test_triple_identity(self):
        r = solve_characteristic(3.0, 3.0, 1.0)  # (t-1)^3
        assert r.multiplicity == "triple"
        assert np.allclose(r.roots, (1.0, 1.0, 1.0), atol=1e-9)
        assert r.repeated == pytest.approx(1.0, abs=1e-9)
        assert r.simple == ()

    def test_double_from_all_ones(self):
        # (t-2)(t+1)^2 = t^3 - 3t - 2
        r = solve_characteristic(0.0, -3.0, 2.0)
        assert r.multiplicity == "double"
        assert r.roots[0] == pytest.approx(2.0, abs=1e-9)
        assert r.repeated == pytest.approx(-1.0, abs=1e-9)
        assert r.simple == (r.roots[0],)

    def test_zero_matrix(self):
        r = solve_characteristic(0.0, 0.0, 0.0)
        assert r.multiplicity == "triple"
        assert r.roots == (0.0, 0.0, 0.0)

    def test_descending_order(self):
        r = solve_characteristic(0.0, -1.0, 0.0)  # t(t-1)(t+1)
        assert r.roots == pytest.approx((1.0, 0.0, -1.0), abs=1e-12)


class TestGates:
    def test_complex_roots_rejected(self):
        # t^3 + t = t(t^2 + 1): one real root, two imaginary
        with pytest.raises(ComplexRootsError):
            solve_characteristic(0.0, 1.0, 0.0)

    def test_roundoff_discriminant_clamped(self):
        # (t-1)^2 (t-2) nudged by one ulp stays on the real branch
        r = solve_characteristic(4.0 + 1e-15, 5.0, 2.0)
        assert r.multiplicity == "double"

    def test_merge_tolerance_is_relative(self):
        # gap of 1e-5 at scale 1e3: the cubic is solved at unit scale (roots
        # 1000 / 2^11), where the gap 4.9e-9 is below 1e-7 * (1 + 0.49)
        big = 1000.0
        a, b, c = big, big + 1e-5, 1.0
        r = solve_characteristic(a + b + c, a * b + a * c + b * c, a * b * c)
        assert r.multiplicity == "double"


class TestRandomized:
    def test_roots_satisfy_cubic(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            A = sampling.random_jordan(rng)
            tr, sg, dt = char_poly(A)
            r = roots_of(A)
            scale = 1.0 + max(abs(x) for x in r.roots) ** 3
            for t in r.roots:
                resid = t**3 - tr * t**2 + sg * t - dt
                assert abs(resid) <= 1e-9 * scale
            assert r.roots[0] >= r.roots[1] >= r.roots[2]

    def test_constructed_doubles_detected(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            A, lam, sign, w = sampling.random_double_root_matrix(rng)
            r = roots_of(A)
            assert r.multiplicity in ("double", "triple")
            assert r.repeated == pytest.approx(lam, abs=1e-6 * (1 + abs(lam)))

    def test_scalar_matrices_triple(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            lam = float(rng.uniform(-5, 5))
            r = solve_characteristic(3 * lam, 3 * lam * lam, lam**3)
            assert r.multiplicity == "triple"
            assert r.repeated == pytest.approx(lam, abs=1e-7 * (1 + abs(lam)))

    def test_vieta_recovered(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            rts = sorted(rng.uniform(-10, 10, 3), reverse=True)
            a, b, c = rts
            r = solve_characteristic(a + b + c, a * b + a * c + b * c, a * b * c)
            assert np.allclose(r.roots, rts, atol=1e-7 * (1 + max(map(abs, rts))))


class TestResultType:
    def test_to_dict(self):
        d = solve_characteristic(0.0, -3.0, 2.0).to_dict()
        assert d["multiplicity"] == "double"
        assert d["repeated"] == pytest.approx(-1.0)
        assert len(d["roots"]) == 3
        d2 = solve_characteristic(6.0, 11.0, 6.0).to_dict()
        assert "repeated" not in d2

    def test_frozen(self):
        r = solve_characteristic(6.0, 11.0, 6.0)
        with pytest.raises(AttributeError):
            r.roots = (0.0, 0.0, 0.0)

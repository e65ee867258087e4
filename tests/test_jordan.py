import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from albert import sampling
from albert.exceptions import (
    InconsistentError,
    NonAssociativeComponentsError,
    NotRankOneError,
    ZeroMatrixError,
)
from albert.jordan import (
    _FREUDENTHAL,
    _JORDAN,
    JordanMatrix,
    OctVector3,
    _frob,
    _hermitian_part,
    _invariants,
    _mul,
    _pack,
    _pivot_column,
    _raw_mul,
    _structure_tensors,
    _trace,
    _unpack,
    char_poly,
    extract_vector,
    freudenthal_product,
    jordan_product,
    matvec,
    phase_align,
    rank1_from_vector,
    sandwich,
)
from albert.octonion import CONJ_SIGNS, MUL_INDEX, MUL_SIGN, Octonion, e, left_mult
from albert.verify import (
    _fold,
    _offdiag_associator,
    _suite_char_equation,
    _suite_det_consistency,
    _suite_polarized_closure,
    _suite_springer,
    _suite_trace_inner_product,
    _suite_trace_reversal_identity,
)

from closeness import close


def all_ones():
    one = Octonion.from_real(1.0)
    return JordanMatrix(a=one, b=one, c=one)


def real_vec(x, y, z):
    return OctVector3(tuple(Octonion.from_real(float(v)) for v in (x, y, z)))


class TestConstruction:
    def test_diag_identity_zero(self):
        assert JordanMatrix.diag(1, 2, 3).trace() == 6.0
        assert JordanMatrix.identity().isclose(JordanMatrix.diag(1, 1, 1))
        assert JordanMatrix.zero().norm() == 0.0

    def test_norm_without_overflow_or_underflow(self):
        # the sum of squares is 1e400 or 1e-400, out of the double range
        assert JordanMatrix.diag(1e200, 0, 0).norm() == 1e200
        assert JordanMatrix.diag(1e-200, 0, 0).norm() == 1e-200

    @pytest.mark.parametrize("k", [520, -520, 600, -600])
    def test_offdiag_norm_without_overflow_or_underflow(self, k):
        # |a|^2 is 2^(2k), out of the double range; sqrt(2) |a| is not
        s = 2.0**k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert JordanMatrix(s, 0, 0, a=e(1) * s).offdiag_norm() == math.sqrt(2.0) * s
            A = sampling.random_jordan(np.random.default_rng(7))
            assert (A * s).offdiag_norm() == A.offdiag_norm() * s

    def test_array_round_trip(self):
        rng = np.random.default_rng(0)
        A = sampling.random_jordan(rng)
        B = JordanMatrix.from_array(A.to_array())
        assert A.isclose(B)

    def test_from_array_rejects_non_hermitian(self):
        arr = JordanMatrix.identity().to_array().copy()
        arr[0, 1, 0] = 5.0  # break conjugate symmetry
        with pytest.raises(ValueError):
            JordanMatrix.from_array(arr)

    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e200])
    def test_from_array_rejects_non_hermitian_at_any_scale(self, scale):
        # the mirror of a's e1 coefficient should carry the opposite sign;
        # at 1e200 the sums of squares overflow unless the norm rescales
        arr = JordanMatrix.diag(1, 2, 3).to_array() * scale
        arr[0, 1, 1] = arr[1, 0, 1] = scale
        with pytest.raises(ValueError, match="not Hermitian"):
            JordanMatrix.from_array(arr)

    def test_from_array_accepts_huge_hermitian_quietly(self):
        arr = sampling.random_jordan(np.random.default_rng(5)).to_array() * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A = JordanMatrix.from_array(arr)
        assert np.array_equal(A.to_array(), arr)

    def test_isclose_without_overflow(self):
        big = JordanMatrix.diag(1e200, 0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert big.isclose(JordanMatrix.diag(1e200 * (1 + 1e-15), 0, 0))
            assert not big.isclose(JordanMatrix.diag(2e200, 0, 0))
            assert JordanMatrix.diag(1e-200, 0, 0).isclose(JordanMatrix.diag(2e-200, 0, 0))

    def test_dict_round_trip(self):
        rng = np.random.default_rng(1)
        A = sampling.random_jordan(rng)
        B = JordanMatrix.from_dict(A.to_dict())
        assert A.isclose(B)
        payload = A.to_dict()
        assert sorted(payload) == ["a", "b", "c", "m", "n", "p"]

    def test_from_dict_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            JordanMatrix.from_dict({"p": 1.0})
        with pytest.raises(ValueError):
            JordanMatrix.from_dict({"p": 1, "m": 1, "n": 1, "a": [1, 2], "b": [0] * 8, "c": [0] * 8})

    def test_from_dict_names_missing_key(self):
        payload = JordanMatrix.identity().to_dict()
        del payload["c"]
        with pytest.raises(ValueError, match=r"^invalid Jordan matrix payload: missing key 'c'$"):
            JordanMatrix.from_dict(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            JordanMatrix(p=bad)
        with pytest.raises(ValueError):
            JordanMatrix(b=Octonion([0, 0, bad, 0, 0, 0, 0, 0]))
        arr = JordanMatrix.identity().to_array()
        arr[2, 2, 0] = bad
        with pytest.raises(ValueError):
            JordanMatrix.from_array(arr)
        with pytest.raises(ValueError):
            JordanMatrix.from_dict({**JordanMatrix.identity().to_dict(), "m": bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, bad):
        arr = np.zeros((3, 8))
        arr[1, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            OctVector3.from_array(arr)
        with pytest.raises(ValueError, match="finite"):
            OctVector3(list(arr))
        with pytest.raises(ValueError, match="finite"):
            OctVector3((1.0, bad, 0.0))
        with pytest.raises(ValueError, match="finite"):
            rank1_from_vector(OctVector3.from_array(np.full((3, 8), bad)))

    def test_hermitian_gate_at_unit_scale(self):
        # each array gets the answer it gets at scale one, 2^k for every k
        # in [-600, 600]: a gross asymmetry is refused, rounding noise of
        # 1e-13 of the largest entry symmetrised away, exactly scaled
        rng = np.random.default_rng(31)
        gross = rng.uniform(-1.0, 1.0, (3, 3, 8))
        hermitian = sampling.random_jordan(rng).to_array()
        noisy = hermitian.copy()
        noisy[0, 1, 2] += 1e-13
        want = JordanMatrix.from_array(noisy).to_array()
        assert not np.array_equal(want, noisy)
        for k in range(-600, 601):
            s = math.ldexp(1.0, k)
            with pytest.raises(ValueError, match="not Hermitian"):
                JordanMatrix.from_array(gross * s)
            assert np.array_equal(JordanMatrix.from_array(hermitian * s).to_array(), hermitian * s)
            assert np.array_equal(JordanMatrix.from_array(noisy * s).to_array(), want * s)

    def test_immutable(self):
        A = sampling.random_jordan(np.random.default_rng(24))
        before = A.to_dict()
        arr = A.to_array()
        arr[0, 1, 3] = 99.0
        arr[0, 0, 0] = 99.0
        assert A.to_dict() == before
        for name in ("p", "a", "_arr", "other"):
            with pytest.raises(AttributeError):
                setattr(A, name, 1.0)
        v = sampling.random_vector(np.random.default_rng(25))
        v.to_array()[1, 1] = 99.0
        assert v.components[1].coeffs[1] != 99.0
        with pytest.raises(AttributeError):
            v.components = ()

    def test_arithmetic(self):
        A = JordanMatrix.diag(1, 2, 3)
        assert (A + A).isclose(A * 2.0)
        assert (A - A).isclose(JordanMatrix.zero())
        assert (-A).isclose(A * -1.0)
        assert (A / 2.0).isclose(A * 0.5)


class TestInvariants:
    def test_diag_invariants(self):
        tr, sigma, det = char_poly(JordanMatrix.diag(1, 2, 3))
        assert (tr, sigma, det) == (6.0, 11.0, 6.0)

    def test_all_ones_invariants(self):
        A = all_ones()
        tr, sigma, det = char_poly(A)
        assert tr == 0.0
        assert sigma == -3.0
        assert det == 2.0

    def test_det_closed_form_vs_trace_form(self):
        assert _fold(_suite_det_consistency, np.random.default_rng(2), 300) <= 1e-10

    def test_trace_reversal_is_minus_two_freudenthal_with_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            A = sampling.random_jordan(rng)
            lhs = A.trace_reversal()
            rhs = freudenthal_product(JordanMatrix.identity(), A) * -2.0
            assert lhs.isclose(rhs)

    def test_sigma_is_trace_of_freudenthal_square(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            A = sampling.random_jordan(rng)
            assert abs(freudenthal_product(A, A).trace() - A.sigma()) <= 1e-12 * (1 + A.norm()) ** 2


class TestProducts:
    def test_commutative(self):
        # x o y is y @ L(x), so swapping the operands sums the same terms in
        # another order: equal to rounding, not bitwise
        rng = np.random.default_rng(5)
        for _ in range(100):
            A, B = sampling.random_jordan(rng), sampling.random_jordan(rng)
            gap = (jordan_product(A, B) - jordan_product(B, A)).norm()
            assert gap <= 1e-14 * (1.0 + A.norm() * B.norm())

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            A = sampling.random_jordan(rng)
            assert jordan_product(A, JordanMatrix.identity()).isclose(A)

    def test_jordan_identity(self):
        # (A o B) o A^2 = A o (B o A^2)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            A, B = sampling.random_jordan(rng), sampling.random_jordan(rng)
            A2 = jordan_product(A, A)
            lhs = jordan_product(jordan_product(A, B), A2)
            rhs = jordan_product(A, jordan_product(B, A2))
            scale = 1.0 + A.norm() ** 3 * B.norm()
            assert (lhs - rhs).norm() <= 1e-10 * scale

    # the identities' residuals are albert.verify's suites, on this file's seeds
    def test_characteristic_equation(self):
        assert _fold(_suite_char_equation, np.random.default_rng(8), 300) <= 1e-9

    def test_springer_identity(self):
        assert _fold(_suite_springer, np.random.default_rng(9), 300) <= 1e-9

    def test_trace_reversal_identity(self):
        assert _fold(_suite_trace_reversal_identity, np.random.default_rng(10), 300) <= 1e-9

    def test_polarized_closure(self):
        assert _fold(_suite_polarized_closure, np.random.default_rng(11), 300) <= 1e-9

    def test_trace_inner_product_quaternionic(self):
        assert _fold(_suite_trace_inner_product, np.random.default_rng(12), 300) <= 1e-10

    def test_overflow_raises_instead_of_nan(self):
        # at 2^600 the products overflow, det and sigma go to +/-inf
        A = sampling.random_jordan(np.random.default_rng(5)) * 2.0**600
        for call in (jordan_product, freudenthal_product):
            with pytest.raises(InconsistentError, match="overflows"):
                call(A, A)
        assert math.isinf(A.det()) and math.isinf(A.sigma())

    @pytest.mark.parametrize("k, j", [(300, 300), (-300, -300), (600, -600)])
    def test_scaled_operands_give_the_scaled_product(self, k, j):
        # each operand runs at its own unit scale, so scaling is exact
        rng = np.random.default_rng(14)
        for _ in range(50):
            A, B = sampling.random_jordan(rng), sampling.random_jordan(rng)
            for product in (jordan_product, freudenthal_product):
                got = product(A * 2.0**k, B * 2.0**j)._arr
                assert got.tobytes() == np.ldexp(product(A, B)._arr, k + j).tobytes()

    def test_trace_inner_product_octonionic_measured(self):
        # Not gated for non-associating columns; measure and report the worst.
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(300):
            v = OctVector3(tuple(sampling.random_octonion(rng) for _ in range(3)))
            w = OctVector3(tuple(sampling.random_octonion(rng) for _ in range(3)))
            vw = v.dagger_dot(w)
            lhs = (vw * vw.conjugate()).real
            Vm = rank1_entries(v)
            Wm = rank1_entries(w)
            rhs = jordan_product(Vm, Wm).trace()
            worst = max(worst, abs(lhs - rhs) / (1.0 + v.norm2() * w.norm2()))
        print(f"octonionic trace-identity worst relative deviation: {worst:.3e}")
        assert math.isfinite(worst)


def rank1_entries(v):
    """v v^dagger assembled entrywise, skipping the associativity gate."""
    v1, v2, v3 = v.components
    return JordanMatrix(
        p=v1.norm2(), m=v2.norm2(), n=v3.norm2(),
        a=v1 * v2.conjugate(), b=v3 * v1.conjugate(), c=v2 * v3.conjugate(),
    )


class TestRealVectorAnalogies:
    def test_jordan_product_generalizes_dot(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            u = real_vec(*rng.uniform(-1, 1, 3))
            v = real_vec(*rng.uniform(-1, 1, 3))
            uu, vv = rank1_from_vector(u), rank1_from_vector(v)
            ua = np.array([c.real for c in u.components])
            va = np.array([c.real for c in v.components])
            dot = float(ua @ va)
            assert abs(jordan_product(uu, vv).trace() - dot**2) <= 1e-12
            # 2 uu^T o vv^T = (u.v)(uv^T + vu^T)
            lhs = jordan_product(uu, vv) * 2.0
            outer = np.outer(ua, va) + np.outer(va, ua)
            rhs = JordanMatrix(
                p=dot * outer[0, 0], m=dot * outer[1, 1], n=dot * outer[2, 2],
                a=Octonion.from_real(dot * outer[0, 1]),
                b=Octonion.from_real(dot * outer[2, 0]),
                c=Octonion.from_real(dot * outer[1, 2]),
            )
            assert close(lhs, rhs, 1e-12)

    def test_freudenthal_generalizes_cross(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            u = rng.uniform(-1, 1, 3)
            v = rng.uniform(-1, 1, 3)
            uu = rank1_from_vector(real_vec(*u))
            vv = rank1_from_vector(real_vec(*v))
            cr = rank1_from_vector(real_vec(*np.cross(u, v)))
            lhs = freudenthal_product(uu, vv) * 2.0
            assert close(lhs, cr, 1e-12)

    def test_det_is_squared_triple_product(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            u, v, w = (rng.uniform(-1, 1, 3) for _ in range(3))
            S = (rank1_from_vector(real_vec(*u)) + rank1_from_vector(real_vec(*v))
                 + rank1_from_vector(real_vec(*w)))
            triple = float(np.dot(u, np.cross(v, w)))
            assert abs(S.det() - triple**2) <= 1e-12 * (1 + S.norm()) ** 3


class TestRankOne:
    def test_basis_vector_gives_diagonal_unit(self):
        V = rank1_from_vector(real_vec(1, 0, 0))
        assert V.isclose(JordanMatrix.diag(1, 0, 0))

    def test_all_ones_vector(self):
        V = rank1_from_vector(real_vec(1, 1, 1))
        assert V.isclose(all_ones() + JordanMatrix.identity())
        assert V.trace() == 3.0

    def test_rank_one_condition(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            v = sampling.random_vector(rng, span=4)
            V = rank1_from_vector(v)
            assert freudenthal_product(V, V).norm() <= 1e-12 * (1 + V.norm()) ** 2
            assert jordan_product(V, V).isclose(V * V.trace())

    def test_non_associating_components_rejected(self):
        for scale in (1.0, 1e-5):
            v = OctVector3((e(1), e(2), e(4))) * scale
            with pytest.raises(NonAssociativeComponentsError):
                rank1_from_vector(v)

    def test_extract_examples(self):
        v = extract_vector(JordanMatrix.diag(0, 0, 1))
        assert v.isclose(real_vec(0, 0, 1))
        v = extract_vector(JordanMatrix.diag(2, 0, 0))
        assert v.isclose(real_vec(math.sqrt(2), 0, 0))

    def test_extract_round_trip(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            v = sampling.random_vector(rng, span=4)
            V = rank1_from_vector(v)
            w = extract_vector(V)
            assert close(rank1_from_vector(w), V, 1e-10)
            assert abs(w.norm2() - V.trace()) <= 1e-10 * (1 + V.trace())

    def test_extract_rejects_higher_rank(self):
        with pytest.raises(NotRankOneError):
            extract_vector(JordanMatrix.identity())

    def test_extract_rejects_zero(self):
        with pytest.raises(ZeroMatrixError):
            extract_vector(JordanMatrix.zero())

    def test_pivot_component_is_correctly_rounded(self):
        # sqrt(V_kk), not V_kk / sqrt(V_kk), which rounds once more
        rng = np.random.default_rng(19)
        for _ in range(1000):
            h = rank1_from_vector(sampling.random_vector(rng, span=4))._arr
            k = int(np.argmax(h[:3]))
            assert _pivot_column(h)[k, 0] == math.sqrt(h[k])

    def test_pivot_tie_takes_first(self):
        V = rank1_from_vector(real_vec(1, 1, 0))
        w = extract_vector(V)
        assert w.components[0].real > 0


class TestRankOneAtUnitScale:
    """v v-dagger is formed on v / 2^e and multiplied back by 2^2e: the
    associator gate does not see the scale of v, and a result outside the
    double range is an InconsistentError, not inf and a warning."""

    @staticmethod
    def associates(v) -> bool:
        try:
            rank1_from_vector(v)
        except NonAssociativeComponentsError:
            return False
        except InconsistentError:
            pass
        return True

    @pytest.mark.parametrize("k", [-600, -300, -40, 40, 300, 600])
    def test_gate_is_scale_free(self, k):
        rng = np.random.default_rng(97)
        vectors = [OctVector3((e(1), e(2), e(4)))]
        vectors += [sampling.random_vector(rng, span=s) for s in (4, 8) for _ in range(20)]
        assert {self.associates(v) for v in vectors} == {True, False}
        for v in vectors:
            assert self.associates(v * math.ldexp(1.0, k)) == self.associates(v)

    @pytest.mark.parametrize("k", [-400, -300, -40, 3, 40, 300])
    def test_exact_under_power_of_two_scaling(self, k):
        rng = np.random.default_rng(98)
        for _ in range(50):
            v = sampling.random_vector(rng, span=4)
            want = np.ldexp(rank1_from_vector(v).to_array(), 2 * k)
            assert np.array_equal(rank1_from_vector(v * math.ldexp(1.0, k)).to_array(), want)

    def test_overflow_is_inconsistency_without_warning(self):
        v = sampling.random_vector(np.random.default_rng(99), span=4) * 2.0**600
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InconsistentError):
                rank1_from_vector(v)

    @pytest.mark.parametrize("k", [-600, -530])
    def test_underflow_is_inconsistency(self, k):
        # |v|^2 is about 2^(2k): zero at -600, subnormal at -530
        v = sampling.random_vector(np.random.default_rng(99), span=4)
        with pytest.raises(InconsistentError, match="underflows"):
            rank1_from_vector(v * 2.0**k)
        assert rank1_from_vector(v * 0.0).norm() == 0.0


class TestVectorsAndAction:
    def test_matvec_identity(self):
        rng = np.random.default_rng(19)
        v = sampling.random_vector(rng, span=8)
        assert matvec(JordanMatrix.identity(), v).isclose(v)

    def test_sandwich_identity(self):
        rng = np.random.default_rng(20)
        A = sampling.random_jordan(rng)
        assert sandwich(JordanMatrix.identity(), A).isclose(A)

    def test_dagger_dot_conjugate_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            v = sampling.random_vector(rng, span=8)
            w = sampling.random_vector(rng, span=8)
            assert v.dagger_dot(w).isclose(w.dagger_dot(v).conjugate())
        assert abs(v.dagger_dot(v).real - v.norm2()) <= 1e-12 * (1 + v.norm2())

    def test_phase_align(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            v = sampling.random_vector(rng, span=4)
            va = phase_align(v)
            r = va.components[2]
            assert float(np.linalg.norm(r.coeffs[1:])) <= 1e-12 * (1 + v.norm2())
            assert r.real >= 0.0
            assert rank1_from_vector(va).isclose(rank1_from_vector(v))

    def test_phase_align_gate_is_relative(self):
        v = sampling.random_vector(np.random.default_rng(22), span=4) * 1e-13
        r = phase_align(v).components[2]
        assert r.real > 0.0
        assert float(np.abs(r.coeffs[1:]).max()) <= 1e-12 * r.real

    def test_offdiag_associator_quaternionic_zero(self):
        rng = np.random.default_rng(23)
        A = sampling.random_jordan(rng, span=4)
        assert _offdiag_associator(A) <= 1e-13
        B = JordanMatrix(a=e(1), b=e(2), c=e(4))
        assert _offdiag_associator(B) > 0


# -- entrywise reference ----------------------------------------------------------
#
# The products above run on one left-multiplication kernel.  These loops
# restate them term by term from the basis table, e_i e_j = s e_k, as the
# reference the kernel must match to rounding.

KERNEL_RTOL = 1e-13


def ref_omul(x, y):
    out = np.zeros(8)
    for i in range(8):
        for j in range(8):
            out[MUL_INDEX[i, j]] += MUL_SIGN[i, j] * x[i] * y[j]
    return out


def ref_matmul(X, Y):
    return np.array([[sum(ref_omul(X[i, k], Y[k, j]) for k in range(3))
                      for j in range(3)] for i in range(3)])


def ref_hermitian_part(X):
    conj = np.array([1.0] + [-1.0] * 7)
    return (X + X.transpose(1, 0, 2) * conj) / 2.0


def ref_jordan(X, Y):
    return ref_hermitian_part(ref_matmul(X, Y))


def ref_trace(X):
    return X[0, 0, 0] + X[1, 1, 0] + X[2, 2, 0]


def ref_freudenthal(X, Y):
    circ = ref_jordan(X, Y)
    tx, ty = ref_trace(X), ref_trace(Y)
    out = circ - (Y * tx + X * ty) / 2.0
    for i in range(3):
        out[i, i, 0] += (tx * ty - ref_trace(circ)) / 2.0
    return out


def ref_det(X):
    p, m, n = X[0, 0, 0], X[1, 1, 0], X[2, 2, 0]
    a, b, c = X[0, 1], X[2, 0], X[1, 2]
    return (p * m * n + 2.0 * ref_omul(b, ref_omul(a, c))[0]
            - n * (a @ a) - m * (b @ b) - p * (c @ c))


def assert_matches(got, want, scale):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    assert err <= KERNEL_RTOL * scale, f"deviation {err:.3e} at scale {scale:.3e}"


class TestKernelAgainstReference:
    @pytest.fixture(scope="class")
    def samples(self):
        rng = np.random.default_rng(26)
        return [(sampling.random_jordan(rng), sampling.random_jordan(rng),
                 sampling.random_vector(rng, span=8)) for _ in range(50)]

    def test_octonion_product(self, samples):
        for A, B, _ in samples:
            for x, y in ((A.a, B.c), (A.b, A.c), (B.a, A.b)):
                assert_matches((x * y).coeffs, ref_omul(x.coeffs, y.coeffs),
                               x.norm() * y.norm())

    def test_jordan_and_freudenthal_products(self, samples):
        for A, B, _ in samples:
            X, Y = A.to_array(), B.to_array()
            scale = A.norm() * B.norm()
            assert_matches(jordan_product(A, B).to_array(), ref_jordan(X, Y), scale)
            assert_matches(freudenthal_product(A, B).to_array(),
                           ref_freudenthal(X, Y), scale)

    def test_sandwich(self, samples):
        for A, B, _ in samples:
            X, Y = A.to_array(), B.to_array()
            want = ref_hermitian_part(ref_matmul(ref_matmul(X, Y), X))
            assert_matches(sandwich(A, B).to_array(), want, A.norm() ** 2 * B.norm())

    def test_matvec(self, samples):
        for A, _, v in samples:
            X, w = A.to_array(), v.to_array()
            want = [sum(ref_omul(X[i, j], w[j]) for j in range(3)) for i in range(3)]
            assert_matches(matvec(A, v).to_array(), want, A.norm() * v.norm())

    def test_det(self, samples):
        for A, _, _ in samples:
            assert_matches(A.det(), ref_det(A.to_array()), A.norm() ** 3)


class TestStructureTensors:
    """The Jordan and Freudenthal tensors hold the products of the 27 x 27
    pairs of basis matrices, exactly, and contracting with them gives the
    product of any pair, a stack the bits of its slices."""

    @pytest.mark.parametrize("tensor, ref", [(_JORDAN, ref_jordan), (_FREUDENTHAL, ref_freudenthal)],
                             ids=["jordan", "freudenthal"])
    def test_basis_pairs_exact(self, tensor, ref):
        basis = _unpack(np.eye(27))
        T = _structure_tensors()[tensor].reshape(27, 27, 27)
        for i in range(27):
            for j in range(27):
                assert np.array_equal(_unpack(T[i, j]), ref(basis[i], basis[j])), (i, j)

    def test_random_pairs(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            A, B = sampling.random_jordan(rng), sampling.random_jordan(rng)
            X, Y = A.to_array(), B.to_array()
            x, y = _pack(X), _pack(Y)
            scale = A.norm() * B.norm()
            assert_matches(_unpack(_mul(x, y)), ref_jordan(X, Y), scale)
            assert_matches(_unpack(_mul(x, y, _FREUDENTHAL)), ref_freudenthal(X, Y), scale)

    def test_commutative(self):
        for tensor in (_JORDAN, _FREUDENTHAL):
            T = _structure_tensors()[tensor].reshape(27, 27, 27)
            assert np.array_equal(T, T.swapaxes(0, 1))

    def test_stack_equals_slices_bit_for_bit(self):
        # fresh copies put the slices at other memory alignments, where a
        # BLAS vector-matrix product would sum in another order
        X, Y = np.random.default_rng(29).uniform(-1.0, 1.0, (2, 5, 27))
        for tensor in (_JORDAN, _FREUDENTHAL):
            got, left = _mul(X, Y, tensor), _mul(X[0], Y, tensor)
            for i in range(len(X)):
                assert np.array_equal(got[i], _mul(X[i].copy(), Y[i].copy(), tensor))
                assert np.array_equal(left[i], _mul(X[0].copy(), Y[i].copy(), tensor))

    def test_pack_round_trip(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            A = sampling.random_jordan(rng)
            X = A.to_array()
            assert np.array_equal(_unpack(_pack(X)), X)
            assert np.linalg.norm(_frob(_pack(X))) == pytest.approx(np.linalg.norm(X), rel=1e-15)
            assert JordanMatrix.from_array(X).to_array().tobytes() == X.tobytes()
            assert JordanMatrix.from_dict(A.to_dict())._arr.tobytes() == A._arr.tobytes()
            assert A.norm() == pytest.approx(np.linalg.norm(X), rel=1e-15)


def det_before_kernel(A):
    """det() as it was written before the shifted kernel, kept as reference."""
    p, m, n = A.diagonal()
    upper = A.to_array().reshape(9, 8)[[1, 6, 5]]
    a, b, c = upper
    na, nb, nc = (upper * upper).sum(axis=1).tolist()
    re_bac = float((b * CONJ_SIGNS) @ (left_mult(a) @ c))
    return p * m * n + 2.0 * re_bac - n * na - m * nb - p * nc


def hexes(values):
    return [float(x).hex() for x in values]


def det_shifted(h, lams):
    """det(A - lambda I) of the coordinates h of A, as ``_invariants`` gives it."""
    return _invariants(h, lams)[2]


class TestShiftedDeterminant:
    """_invariants(h, lambda)[2] is det(A - lambda I) bit for bit, for one
    lambda or a vector of them, and det() is its lambda = 0 call."""

    @pytest.mark.parametrize("span", [8, 4])
    def test_equals_det_of_the_shifted_matrix(self, span):
        rng = np.random.default_rng(70 + span)
        ident = JordanMatrix.identity()
        for _ in range(200):
            A = sampling.random_jordan(rng, span=span)
            lams = np.concatenate([[0.0, -0.75, 1.25], rng.uniform(-3.0, 3.0, 3)])
            assert hexes([det_shifted(A._arr, 0.0), A.det()]) == hexes([det_before_kernel(A)] * 2)
            want = hexes((A - ident * float(lam)).det() for lam in lams)
            assert hexes(det_shifted(A._arr, lams)) == want
            assert hexes(det_shifted(A._arr, float(lam)) for lam in lams) == want

    def test_float_in_float_out(self):
        A = JordanMatrix.diag(1.0, 2.0, 3.0)
        assert type(det_shifted(A._arr, 0.0)) is float
        assert det_shifted(A._arr, np.array([1.0, 2.0, 3.0, 0.0])).tolist() == [0, 0, 0, 6]


class TestShiftedDeterminantOnFloats:
    """A list or tuple of lambdas gives a list of floats, each with the bits
    of its float call and of the array call."""

    @pytest.mark.parametrize("span", [8, 4])
    def test_sequence_in_list_out(self, span):
        rng = np.random.default_rng(78 + span)
        for _ in range(100):
            A = sampling.random_jordan(rng, span=span)
            lams = rng.uniform(-3.0, 3.0, 6).tolist()
            want = hexes(det_shifted(A._arr, lam) for lam in lams)
            assert hexes(det_shifted(A._arr, np.array(lams))) == want
            for seq in (lams, tuple(lams)):
                out = det_shifted(A._arr, seq)
                assert type(out) is list and all(type(d) is float for d in out)
                assert hexes(out) == want

    def test_empty(self):
        assert det_shifted(JordanMatrix.diag(1.0, 2.0, 3.0)._arr, ()) == []


def sigma_before_single_pass(A):
    """sigma() as it was written before the single-pass invariants."""
    p, m, n = A.diagonal()
    upper = A.to_array().reshape(9, 8)[[1, 6, 5]]
    na, nb, nc = (upper * upper).sum(axis=1).tolist()
    return p * m + m * n + p * n - na - nb - nc


class TestSinglePassInvariants:
    """char_poly reads the entries once and keeps the bits of the separate
    trace, sigma and det; off unit scale it multiplies each coefficient back
    by 2^(degree e), overflowing to +/-inf, never to NaN, and never warning."""

    @pytest.mark.parametrize("span", [8, 4])
    def test_bits_of_the_separate_invariants(self, span):
        rng = np.random.default_rng(90 + span)
        for _ in range(200):
            A = sampling.random_jordan(rng, span=span)
            want = hexes([sum(A.diagonal()), sigma_before_single_pass(A), det_before_kernel(A)])
            assert hexes(char_poly(A)) == want
            assert hexes([A.trace(), A.sigma(), A.det()]) == want

    @pytest.mark.parametrize("k", [-40, -3, 1, 7, 60])
    def test_exact_under_power_of_two_scaling(self, k):
        rng = np.random.default_rng(95)
        for _ in range(50):
            A = sampling.random_jordan(rng)
            want = [math.ldexp(x, d * k) for x, d in zip(char_poly(A), (1, 2, 3))]
            assert hexes(char_poly(A * math.ldexp(1.0, k))) == hexes(want)

    @pytest.mark.parametrize("k", [600, 400, 200, -600])
    def test_out_of_range_is_inf_not_nan(self, k):
        # warnings are errors in this suite, so a numpy warning fails here
        rng = np.random.default_rng(96)
        for _ in range(50):
            poly = char_poly(sampling.random_jordan(rng) * 2.0**k)
            assert not any(map(math.isnan, poly))
            assert all(math.isfinite(x) or abs(x) == math.inf for x in poly)
        assert math.isinf(char_poly(JordanMatrix.diag(2.0**600, 2.0**600, 1.0))[1])

    def test_sigma_is_char_poly_sigma(self):
        # sigma() is char_poly's sigma: at 2^600 it overflows to +/-inf,
        # at 2^-600 it underflows to zero
        rng = np.random.default_rng(97)
        seen = set()
        for _ in range(100):
            A = sampling.random_jordan(rng) + JordanMatrix.identity() * rng.uniform(-3.0, 3.0)
            for k in (-600, -340, 0, 340, 600):
                B = A * math.ldexp(1.0, k)
                want = char_poly(B)[1]
                assert B.sigma().hex() == want.hex()
                seen.add(str(want) if math.isinf(want) or want == 0.0 else "finite")
        assert seen == {"inf", "-inf", "0.0", "-0.0", "finite"}


def jordan_kernel(x, y):
    return _mul(x, y)


def freudenthal_kernel(x, y):
    return _mul(x, y, _FREUDENTHAL)


class TestStackKernels:
    """The array kernels on a stack of five matrices equal their per-slice
    single calls exactly, and a single factor broadcasts against a stack."""

    @pytest.fixture(scope="class")
    def stacks(self):
        rng = np.random.default_rng(27)
        H, K = (np.stack([sampling.random_jordan(rng)._arr for _ in range(5)])
                for _ in range(2))
        return H, K

    @staticmethod
    def kernels(stacks):
        """Each kernel with the stacks in its layout: the ordinary product on
        (5, 3, 3, 8) arrays, the Jordan and Freudenthal products on (5, 27)
        coordinates."""
        H, K = stacks
        return [(_raw_mul, _unpack(H), _unpack(K)), (jordan_kernel, H, K),
                (freudenthal_kernel, H, K)]

    def test_products(self, stacks):
        for kernel, X, Y in self.kernels(stacks):
            got = kernel(X, Y)
            assert got.shape == X.shape
            for i in range(len(X)):
                assert np.array_equal(got[i], kernel(X[i], Y[i])), kernel.__name__

    def test_square(self, stacks):
        X, _ = stacks
        got = freudenthal_kernel(X, X)
        for i in range(len(X)):
            assert np.array_equal(got[i], freudenthal_kernel(X[i], X[i]))
            assert np.array_equal(got[i], freudenthal_kernel(X[i], X[i].copy()))

    def test_hermitian_part_and_trace(self, stacks):
        H, K = stacks
        X, Y = _unpack(H), _unpack(K)
        R = _raw_mul(X, Y)
        P, T = _hermitian_part(R), _trace(H)
        assert T.shape == (len(X),)
        for i in range(len(X)):
            assert np.array_equal(P[i], _hermitian_part(R[i]))
            assert T[i] == _trace(H[i]) == JordanMatrix.from_array(X[i]).trace()

    def test_single_factor_broadcasts(self, stacks):
        for kernel, X, Y in self.kernels(stacks):
            A = X[0]
            left, right = kernel(A, Y), kernel(Y, A)
            for i in range(len(Y)):
                assert np.array_equal(left[i], kernel(A, Y[i])), kernel.__name__
                assert np.array_equal(right[i], kernel(Y[i], A)), kernel.__name__

    def test_public_products_are_single_calls(self, stacks):
        H, K = stacks
        A, B = JordanMatrix.from_array(_unpack(H[1])), JordanMatrix.from_array(_unpack(K[1]))
        assert np.array_equal(jordan_product(A, B)._arr, jordan_kernel(A._arr, B._arr))
        assert np.array_equal(freudenthal_product(A, B)._arr,
                              freudenthal_kernel(A._arr, B._arr))


class TestScalarOperands:
    @pytest.mark.parametrize("k", [2, 2.0, np.float64(2.0), Fraction(2, 1)],
                             ids=["int", "float", "float64", "Fraction"])
    def test_real_scalars_accepted(self, k):
        A, x = JordanMatrix.diag(1.0, 2.0, 3.0), Octonion.from_real(1.5)
        v = real_vec(1, 2, 3)
        assert (A * k).diagonal() == (k * A).diagonal() == (2.0, 4.0, 6.0)
        assert (A / k).diagonal() == (0.5, 1.0, 1.5)
        assert (x * k).real == (k * x).real == 3.0 and (x + k).real == 3.5
        assert (x / k).real == 0.75 and (k - x).real == 0.5
        assert (v * k).to_list() == (k * v).to_list()
        assert JordanMatrix(a=k).a.real == 2.0

    def test_non_scalars_rejected(self):
        with pytest.raises(TypeError):
            JordanMatrix.identity() * "2"
        with pytest.raises(ValueError):
            JordanMatrix(a=np.array(2.0))

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albert import sampling
from albert.config import tolerances
from albert.cubic import solve_characteristic
from albert.dirac import classify_psquare
from albert.exceptions import (
    InconsistentError,
    NotAnEigenvalueError,
    NotDoubleRootError,
    ZeroQMatrixError,
)
from albert.f4 import diagonalize
from albert.jordan import (
    JordanMatrix,
    OctVector3,
    char_poly,
    extract_vector,
    freudenthal_product,
    jordan_product,
    rank1_from_vector,
)
from albert.octonion import Octonion, e
from albert.oracle import modified_char_check
from albert.spectral import (
    _idempotents,
    _purify,
    decompose,
    double_root_split,
    idempotent_from_q,
    invariant_double_decomposition,
    q_matrix,
)


def all_ones():
    one = Octonion.from_real(1.0)
    return JordanMatrix(a=one, b=one, c=one)


def check_primitive(P, atol=1e-8):
    assert abs(P.trace() - 1.0) <= atol
    assert (jordan_product(P, P) - P).norm() <= atol
    assert freudenthal_product(P, P).norm() <= atol


class TestQMatrix:
    def test_diagonal_example(self):
        Q = q_matrix(JordanMatrix.diag(1, 2, 3), 1.0)
        # (A-I)*(A-I) for diag(0,1,2) is diag(2, 0, 0)
        assert Q.isclose(JordanMatrix.diag(2, 0, 0))

    def test_rejects_non_eigenvalue(self):
        with pytest.raises(NotAnEigenvalueError):
            q_matrix(JordanMatrix.diag(1, 2, 3), 1.5)

    def test_idempotent_from_q(self):
        assert idempotent_from_q(JordanMatrix.diag(2, 0, 0)).isclose(JordanMatrix.diag(1, 0, 0))
        assert idempotent_from_q(JordanMatrix.diag(0, 5, 0)).isclose(JordanMatrix.diag(0, 1, 0))

    def test_zero_q_rejected(self):
        with pytest.raises(ZeroQMatrixError):
            idempotent_from_q(JordanMatrix.zero())

    def test_q_trace_sign_for_middle_eigenvalue(self):
        # Q(lambda_2) = (l2-l1)(l2-l3) E22 has negative trace; the idempotent
        # still normalises correctly.
        A = JordanMatrix.diag(3, 2, 1)
        Q = q_matrix(A, 2.0)
        assert Q.trace() < 0
        assert idempotent_from_q(Q).isclose(JordanMatrix.diag(0, 1, 0))


class TestDecomposeExamples:
    def test_distinct_diagonal(self):
        dec = decompose(JordanMatrix.diag(1, 2, 3))
        assert dec.eigenvalues == pytest.approx((3.0, 2.0, 1.0), abs=1e-12)
        assert dec.idempotents[0].isclose(JordanMatrix.diag(0, 0, 1))
        assert dec.idempotents[1].isclose(JordanMatrix.diag(0, 1, 0))
        assert dec.idempotents[2].isclose(JordanMatrix.diag(1, 0, 0))

    def test_identity_triple(self):
        dec = decompose(JordanMatrix.identity())
        assert dec.eigenvalues == (1.0, 1.0, 1.0)
        assert dec.idempotents[0].isclose(JordanMatrix.diag(1, 0, 0))
        for k, v in enumerate(dec.eigenvectors):
            comp = v.components[k]
            assert comp.isclose(Octonion.from_real(1.0))

    def test_all_ones_double(self):
        A = all_ones()
        dec = decompose(A)
        assert dec.eigenvalues == pytest.approx((2.0, -1.0, -1.0), abs=1e-9)
        # eigenvalue 2 idempotent is (A + I)/3
        assert dec.idempotents[0].isclose((A + JordanMatrix.identity()) / 3.0, atol=1e-9)
        for P in dec.idempotents:
            check_primitive(P)

    def test_residual_keys(self):
        dec = decompose(JordanMatrix.diag(1, 2, 3))
        assert sorted(dec.residuals) == [
            "completeness", "eigen", "orthogonality", "reconstruction",
        ]
        assert len(dec.residuals["eigen"]) == 3

    def test_to_dict_shape(self):
        d = decompose(JordanMatrix.diag(1, 2, 3)).to_dict()
        assert sorted(d) == ["eigenvalues", "eigenvectors", "idempotents", "residuals"]
        assert len(d["eigenvectors"][0]) == 3
        assert len(d["eigenvectors"][0][0]) == 8


class TestDoubleRootSplit:
    def test_diagonal_example(self):
        V1, V2 = double_root_split(JordanMatrix.diag(0, 0, 1), 0.0)
        assert {0, 1} == {round(V1.p), round(V2.p)}
        for V in (V1, V2):
            check_primitive(V, atol=1e-12)
            assert jordan_product(V, JordanMatrix.diag(0, 0, 1)).norm() <= 1e-12

    def test_all_ones_repeated_eigenvalue(self):
        A = all_ones()
        V1, V2 = double_root_split(A, -1.0)
        for V in (V1, V2):
            check_primitive(V, atol=1e-9)
            assert (jordan_product(A, V) + V).norm() <= 1e-9
        assert jordan_product(V1, V2).norm() <= 1e-9
        # first factor built from v proportional to (1, -1, 0)
        v = V1 * 2.0
        assert v.p == pytest.approx(1.0, abs=1e-9)
        assert v.m == pytest.approx(1.0, abs=1e-9)
        assert v.a.isclose(Octonion.from_real(-1.0), atol=1e-9)

    def test_rejects_triple(self):
        with pytest.raises(NotDoubleRootError):
            double_root_split(JordanMatrix.identity(), 1.0)

    def test_rejects_simple_root(self):
        with pytest.raises(NotDoubleRootError):
            double_root_split(JordanMatrix.diag(1, 2, 3), 1.0)

    def test_single_slot_and_two_slot_vectors(self):
        # w concentrated in one coordinate slot, then spread over two
        for w in (
            OctVector3((Octonion.zero(), e(2) * 0.7, Octonion.zero())),
            OctVector3((Octonion.from_real(0.6), Octonion.zero(), Octonion.from_real(0.8))),
        ):
            A = JordanMatrix.identity() * 0.5 + rank1_from_vector(w)
            V1, V2 = double_root_split(A, 0.5)
            for V in (V1, V2):
                check_primitive(V, atol=1e-9)
                assert (jordan_product(A, V) - V * 0.5).norm() <= 1e-9

    def test_seeded_splits(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            A, lam, sign, w = sampling.random_double_root_matrix(rng)
            V1, V2 = double_root_split(A, lam)
            scale = 1.0 + A.norm()
            for V in (V1, V2):
                assert (jordan_product(A, V) - V * lam).norm() <= 1e-8 * scale
                check_primitive(V, atol=1e-8 * scale)
            assert jordan_product(V1, V2).norm() <= 1e-8 * scale


class TestInvariantDouble:
    def test_diagonal_example(self):
        (mu, P), (lam, K) = invariant_double_decomposition(JordanMatrix.diag(0, 0, 1), 0.0)
        assert mu == pytest.approx(1.0)
        assert lam == 0.0
        assert P.isclose(JordanMatrix.diag(0, 0, 1))
        assert K.isclose(JordanMatrix.diag(1, 1, 0))
        assert K.trace() == pytest.approx(2.0)

    def test_all_ones(self):
        A = all_ones()
        (mu, P), (lam, K) = invariant_double_decomposition(A, -1.0)
        assert mu == pytest.approx(2.0, abs=1e-12)
        assert P.isclose((A + JordanMatrix.identity()) / 3.0)
        assert K.isclose(JordanMatrix.identity() - P)
        assert (P * mu + K * lam - A).norm() <= 1e-12

    def test_reconstruction_seeded(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            A, lam, sign, w = sampling.random_double_root_matrix(rng)
            (mu, P), (lam2, K) = invariant_double_decomposition(A, lam)
            scale = 1.0 + A.norm()
            assert (P * mu + K * lam2 - A).norm() <= 1e-9 * scale
            assert (jordan_product(P, K)).norm() <= 1e-9 * scale
            assert abs(K.trace() - 2.0) <= 1e-9

    def test_rejects_distinct(self):
        with pytest.raises(NotDoubleRootError):
            invariant_double_decomposition(JordanMatrix.diag(1, 2, 3), 1.0)


class TestDecomposeRandom:
    def test_seeded_full_pipeline(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            A = sampling.random_jordan(rng)
            dec = decompose(A)
            scale = 1.0 + A.norm()
            assert max(dec.residuals["eigen"]) <= 1e-8 * scale
            assert dec.residuals["orthogonality"] <= 1e-8 * scale
            assert dec.residuals["completeness"] <= 1e-8 * scale
            assert dec.residuals["reconstruction"] <= 1e-8 * scale
            assert dec.eigenvalues[0] >= dec.eigenvalues[1] >= dec.eigenvalues[2]
            for lam, v in zip(dec.eigenvalues, dec.eigenvectors):
                V = rank1_from_vector(v)
                assert (jordan_product(A, V) - V * lam).norm() <= 1e-7 * scale

    def test_constructed_doubles(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            A, lam, sign, w = sampling.random_double_root_matrix(rng)
            dec = decompose(A)
            scale = 1.0 + A.norm()
            assert max(dec.residuals["eigen"]) <= 1e-8 * scale
            # lam appears twice in the spectrum
            hits = sum(1 for v in dec.eigenvalues if abs(v - lam) <= 1e-6 * scale)
            assert hits == 2

    def test_perturbed_double_tracks_eigenvalues(self):
        # eps-perturbation: roots split but idempotents still nearly invariant
        rng = np.random.default_rng(44)
        eps = 1e-3
        for _ in range(100):
            A, lam, sign, w = sampling.random_double_root_matrix(rng)
            E = sampling.random_jordan(rng)
            B = A + E * (eps / (1.0 + E.norm()))
            dec = decompose(B)
            assert len(set(dec.eigenvalues)) == 3
            for lam_i, P in zip(dec.eigenvalues, dec.idempotents):
                assert (jordan_product(B, P) - P * lam_i).norm() <= 10 * eps

    def test_quaternionic_matrices(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            A = sampling.random_jordan(rng, span=4)
            dec = decompose(A)
            scale = 1.0 + A.norm()
            assert dec.residuals["reconstruction"] <= 1e-8 * scale


# 2^601 times [[1/2, a], [conj a, 2^-601]] (+) (-1/4) with |a|^2 = 1/2: its
# spectrum is exact, but sigma ~ 2^1201 and det ~ 2^1800 leave the double range.
HUGE = JordanMatrix(p=2**600, m=1, n=-2**599, a=Octonion([2**599] * 8))
HUGE_SPECTRUM = (2.0**601, -2.0**599, -2.0**600)
DIAG400_SPECTRUM = (2.0**400, 0.0, 0.0)


def known_answer(entry, out, spectrum, gate=1e-8):
    """Assert that ``out`` of ``entry`` is the answer for a matrix with this
    spectrum (descending), within the verify gate relative to its scale."""
    scale = max(map(abs, spectrum))
    tr, sigma, det = (sum(spectrum), spectrum[0] * spectrum[1] + spectrum[0] * spectrum[2]
                      + spectrum[1] * spectrum[2], spectrum[0] * spectrum[1] * spectrum[2])

    def close(values, degree=1):
        return all(abs(x - y) / scale**degree <= gate for x, y in zip(values, spectrum))

    if entry == "charpoly":
        assert close(out.roots)
    elif entry == "decompose":
        assert close(out.eigenvalues)
        for P in out.idempotents:
            check_primitive(P)
        res = out.residuals
        assert max(res["eigen"]) <= gate * scale and res["reconstruction"] <= gate * scale
        assert res["orthogonality"] <= gate and res["completeness"] <= gate
    elif entry == "diagonalize":
        assert close(sorted(out.diagonal, reverse=True))
        assert out.residual <= gate * scale
    elif entry == "classify":
        assert out.p == sum(1 for x in spectrum if x)
        for value, exact, degree in ((out.trace, tr, 1), (out.sigma, sigma, 2), (out.det, det, 3)):
            assert abs(value - exact) / scale / scale ** (degree - 1) <= gate
    else:
        assert out.passed
        assert sum(mult for _, mult, _ in out.clusters) == 24
        lams = [lam for lam, _, _ in out.clusters]
        assert all(min(abs(lam - x) for lam in lams) <= gate * scale for x in spectrum)
        assert all(abs(r) / scale / scale / scale <= gate for _, _, r in out.clusters)


class TestOverflowingInput:
    """Finite input far from unit scale: every entry point returns the known
    answer within the verify gates when each number it outputs can be
    represented, and raises InconsistentError otherwise (here charpoly and
    classify on HUGE, whose sigma and det overflow)."""

    @pytest.mark.parametrize("entry", ["charpoly", "decompose", "diagonalize", "classify",
                                       "oracle"])
    @pytest.mark.parametrize("A, spectrum", [
        (HUGE, HUGE_SPECTRUM),
        (JordanMatrix.diag(2**400, 0, 0), DIAG400_SPECTRUM),
    ], ids=["invariants-overflow", "cubic-overflows"])
    def test_raises_albert_error(self, entry, A, spectrum):
        call = {
            "charpoly": lambda A: solve_characteristic(*char_poly(A)),
            "decompose": decompose,
            "diagonalize": diagonalize,
            "classify": classify_psquare,
            "oracle": modified_char_check,
        }[entry]
        outputs_fit = A is not HUGE or entry not in ("charpoly", "classify")
        # char_poly works at the caller's scale, so its overflow warns
        with np.errstate(over="ignore", invalid="ignore"):
            if not outputs_fit:
                with pytest.raises(InconsistentError):
                    call(A)
                return
            out = call(A)
        known_answer(entry, out, spectrum)

    @pytest.mark.parametrize("call, check", [
        # (1 + |A|)^3 does not fit in a double here, but both Q matrices do:
        # 0 is a double root, and the simple root 1e120 gives diag(1e240, 0, 0)
        (lambda: (q_matrix(JordanMatrix.diag(1e120, 0, 0), 0.0),
                  q_matrix(JordanMatrix.diag(1e120, 0, 0), 1e120)),
         lambda Qs: not Qs[0].to_array().any()
         and Qs[1].isclose(JordanMatrix.diag(1e240, 0, 0), atol=0.0, rtol=1e-15)),
        # the pair comes in the order of the same split at unit scale
        (lambda: double_root_split(JordanMatrix.diag(9e153, 9e153, 0), 9e153),
         lambda Vs: Vs == (JordanMatrix.diag(0, 1, 0), JordanMatrix.diag(1, 0, 0))
         == double_root_split(JordanMatrix.diag(2, 2, 0), 2.0)),
        (lambda: invariant_double_decomposition(JordanMatrix.diag(9e153, 9e153, 0), 9e153),
         lambda out: out[0][0] == 0.0 and out[1][0] == 9e153
         and out[0][1] == JordanMatrix.diag(0, 0, 1) and out[1][1] == JordanMatrix.diag(1, 1, 0)),
    ], ids=["q_matrix", "double_root_split", "invariant_double_decomposition"])
    def test_scale_power_overflow(self, call, check):
        assert check(call())


class TestScaleCovariance:
    """Every entry point runs on A / 2^e, so scaling A by 2^k scales each
    output exactly by 2^(k * degree)."""

    @given(st.integers(0, 2**32 - 1), st.integers(-600, 600))
    @settings(max_examples=40, deadline=None)
    def test_decompose_and_diagonalize(self, seed, k):
        A = sampling.random_jordan(np.random.default_rng(seed))
        Ak = A * math.ldexp(1.0, k)
        dec, dec_k = decompose(A), decompose(Ak)
        assert dec_k.eigenvalues == tuple(math.ldexp(x, k) for x in dec.eigenvalues)
        for P, Pk in zip(dec.idempotents + dec.eigenvectors, dec_k.idempotents + dec_k.eigenvectors):
            assert np.array_equal(P.to_array(), Pk.to_array())
        res, res_k = diagonalize(A), diagonalize(Ak)
        assert res_k.diagonal == tuple(math.ldexp(x, k) for x in res.diagonal)
        assert res_k.residual == math.ldexp(res.residual, k)
        for M, Mk in zip(res.steps, res_k.steps, strict=True):
            assert np.array_equal(M.to_array(), Mk.to_array())

    @given(st.integers(0, 2**32 - 1), st.integers(-300, 300))
    @settings(max_examples=100, deadline=None)
    def test_solve_characteristic(self, seed, k):
        tr, sigma, det = char_poly(sampling.random_jordan(np.random.default_rng(seed)))
        r = solve_characteristic(tr, sigma, det)
        r_k = solve_characteristic(math.ldexp(tr, k), math.ldexp(sigma, 2 * k),
                                   math.ldexp(det, 3 * k))
        assert r_k.multiplicity == r.multiplicity
        assert r_k.roots == tuple(math.ldexp(x, k) for x in r.roots)

    def test_huge_q_normalises(self):
        # |Q|^2 = 1e400 does not fit in a double, so the trace gate must not
        # compare tr Q with a norm taken at the caller's scale
        P = idempotent_from_q(JordanMatrix.diag(1e200, 0, 0))
        assert np.array_equal(P.to_array(), JordanMatrix.diag(1, 0, 0).to_array())

    def test_huge_rank_one_extracts(self):
        v = extract_vector(JordanMatrix.diag(1e200, 0, 0))
        assert v.norm2() == pytest.approx(1e200, rel=1e-15)
        assert not v.to_array()[1:].any() and not v.to_array()[0, 1:].any()


class TestStackedPipeline:
    """decompose runs its roots as one stack; it must agree with the public
    one-root route and keep the root-by-root order of the gates."""

    def test_matches_one_root_route(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            A = sampling.random_jordan(rng)
            dec = decompose(A)
            for lam, P, v in zip(dec.eigenvalues, dec.idempotents, dec.eigenvectors):
                P1 = JordanMatrix._wrap(_purify(idempotent_from_q(q_matrix(A, lam))._arr))
                v1 = extract_vector(P1, rank_rtol=tolerances.residual_rtol)
                assert (P - P1).norm() <= 1e-14 * P1.norm()
                assert np.linalg.norm(v.to_array() - v1.to_array()) <= 1e-14 * v1.norm()

    def test_non_root_in_stack(self):
        A = JordanMatrix.diag(1.0, 2.0, 3.0)
        with pytest.raises(NotAnEigenvalueError):
            _idempotents(A._arr, char_poly(A), (3.0, 2.5))

    def test_repeated_root_precedes_later_non_root(self):
        # 1 is a double root of A: its Q vanishes.  The non-root 5 comes
        # later in the stack, so the vanishing Q is reported first, as a
        # root-by-root loop would report it.
        A = JordanMatrix.diag(1.0, 1.0, 3.0)
        lams = (3.0, 1.0, 5.0)
        with pytest.raises(ZeroQMatrixError):
            for lam in lams:
                idempotent_from_q(q_matrix(A, lam))
        with pytest.raises(ZeroQMatrixError):
            _idempotents(A._arr, char_poly(A), lams)

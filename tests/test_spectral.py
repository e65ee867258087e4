import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albert import cubic, f4, jordan, oracle, sampling, spectral
from albert.config import RESIDUAL_RTOL
from albert.cubic import solve_characteristic
from albert.dirac import classify_psquare
from albert.exceptions import (
    ComplexRootsError,
    InconsistentError,
    NotAnEigenvalueError,
    NotDoubleRootError,
    NotRankOneError,
    ZeroMatrixError,
    ZeroQMatrixError,
)
from albert.f4 import diagonalize
from albert.jordan import (
    JordanMatrix,
    OctVector3,
    _extract,
    _frob,
    _mul,
    _op,
    char_poly,
    extract_vector,
    freudenthal_product,
    jordan_product,
    matvec,
    phase_align,
    rank1_from_vector,
    sandwich,
)
from albert.octonion import Octonion, e
from albert.oracle import embed, modified_char_check
from albert.spectral import (
    PURE_DEFECT,
    _deflate,
    _idempotents,
    _purify,
    _q_stack,
    decompose,
    double_root_split,
    idempotent_from_q,
    q_matrix,
)

from closeness import close


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
        assert close(dec.idempotents[0], (A + JordanMatrix.identity()) / 3.0, 1e-9)
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
        assert close(v.a, Octonion.from_real(-1.0), 1e-9)

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


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [q_matrix, double_root_split])
def test_non_finite_lambda_is_refused(call, lam):
    # a NaN lambda passes every gate (each comparison with NaN is False)
    # and would come back as NaN matrices
    with pytest.raises(ValueError, match="lambda must be finite"):
        call(JordanMatrix.diag(1, 2, 3), lam)


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
        if not outputs_fit:
            with pytest.raises(InconsistentError):
                call(A)
            return
        known_answer(entry, call(A), spectrum)

    @pytest.mark.parametrize("call, check", [
        # (1 + |A|)^3 does not fit in a double here, but both Q matrices do:
        # 0 is a double root, and the simple root 1e120 gives diag(1e240, 0, 0)
        (lambda: (q_matrix(JordanMatrix.diag(1e120, 0, 0), 0.0),
                  q_matrix(JordanMatrix.diag(1e120, 0, 0), 1e120)),
         lambda Qs: not Qs[0].to_array().any()
         and close(Qs[1], JordanMatrix.diag(1e240, 0, 0), 0.0, 1e-15)),
        # the pair comes in the order of the same split at unit scale
        (lambda: double_root_split(JordanMatrix.diag(9e153, 9e153, 0), 9e153),
         lambda Vs: Vs == (JordanMatrix.diag(0, 1, 0), JordanMatrix.diag(1, 0, 0))
         == double_root_split(JordanMatrix.diag(2, 2, 0), 2.0)),
    ], ids=["q_matrix", "double_root_split"])
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

    def test_double_root_functions(self):
        # the split runs on A / 2^e and lambda / 2^e, so the pair and its
        # order keep their bits
        rng = np.random.default_rng(40)
        for _ in range(200):
            A, lam, _, _ = sampling.random_double_root_matrix(rng)
            pair = [V.to_array() for V in double_root_split(A, lam)]
            for k in (5, -5, 20, -20, 300, -300):
                s = math.ldexp(1.0, k)
                pair_k = [V.to_array() for V in double_root_split(A * s, lam * s)]
                assert all(map(np.array_equal, pair_k, pair))

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
                Q1 = idempotent_from_q(q_matrix(A, lam))._arr
                P1 = JordanMatrix._wrap(_purify(Q1[None])[0][0])
                v1 = OctVector3._wrap(_extract(P1._arr, RESIDUAL_RTOL)[0])
                assert (P - P1).norm() <= 1e-14 * P1.norm()
                assert np.linalg.norm(v.to_array() - v1.to_array()) <= 1e-14 * v1.norm()

    def test_non_root_in_stack(self):
        A = JordanMatrix.diag(1.0, 2.0, 3.0)
        with pytest.raises(NotAnEigenvalueError):
            _idempotents(A._arr, A.norm(), char_poly(A), (3.0, 2.5))

    def test_repeated_root_precedes_later_non_root(self):
        # 1 is a double root of A: its Q vanishes.  The non-root 5 comes
        # later in the stack, so the vanishing Q is reported first, as a
        # root-by-root loop would report it; the stack takes its roots as
        # simple, so the vanishing Q is an inconsistency.
        A = JordanMatrix.diag(1.0, 1.0, 3.0)
        lams = (3.0, 1.0, 5.0)
        with pytest.raises(ZeroQMatrixError):
            for lam in lams:
                idempotent_from_q(q_matrix(A, lam))
        with pytest.raises(InconsistentError) as info:
            _idempotents(A._arr, A.norm(), char_poly(A), lams)
        assert isinstance(info.value.__cause__, ZeroQMatrixError)


def with_op(P):
    """A stack of coordinates and its L(P), as ``_purify`` returns them."""
    return P, _op(P)


class TestScaleFreeMessages:
    """Gates run at unit scale, so their messages quote scale-free ratios or
    no number: the message raised on A equals the one raised on 2^20 A."""

    @staticmethod
    def message(exc_type, call, scale):
        with pytest.raises(exc_type) as info:
            call(scale)
        return str(info.value)

    @pytest.mark.parametrize("exc_type, call", [
        (NotAnEigenvalueError,
         lambda s: q_matrix(JordanMatrix.diag(1024, 2048, 4096) * s, 1500.0 * s)),
        (ZeroQMatrixError, lambda s: idempotent_from_q(JordanMatrix.diag(3, -3, 0) * s)),
        (NotDoubleRootError, lambda s: double_root_split(JordanMatrix.diag(1, 2, 3) * s, s)),
        (NotDoubleRootError, lambda s: double_root_split(JordanMatrix.identity() * s, s)),
        (NotRankOneError, lambda s: extract_vector(JordanMatrix.diag(1, 1, 0) * s)),
        (ZeroMatrixError, lambda s: extract_vector(JordanMatrix.diag(-8, 0, 0) * s)),
        (ComplexRootsError, lambda s: solve_characteristic(0.0, s * s, 0.0)),
    ], ids=["check-root", "q-trace", "double-not-rank-one", "double-is-triple",
            "extract-rank", "extract-trace", "discriminant"])
    def test_gate(self, exc_type, call):
        msg = self.message(exc_type, call, 1.0)
        assert msg == self.message(exc_type, call, 2.0**20)
        assert "0.1831" not in msg and "-5.000e-01" not in msg

    def test_decompose_inconsistencies(self, monkeypatch):
        def bad_pair(*args):  # the block's first diagonal entry off by 1e-3
            *out, b2 = _deflate(*args)
            return *out, b2 + np.eye(27)[0] * 1e-3

        with monkeypatch.context() as m:
            m.setattr(spectral, "_deflate", bad_pair)
            double = JordanMatrix.diag(1.0, 4.0, 1.0)
            msgs = [self.message(InconsistentError, decompose, double * s)
                    for s in (1.0, 2.0**20)]
            assert msgs[0] == msgs[1] and "fails to reproduce A" in msgs[0]
        A = JordanMatrix.diag(1.0, 2.0, 4.0)  # unit scale diag(1/8, 1/4, 1/2)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_purify", lambda P: with_op(P * 1.5))
            msgs = [self.message(InconsistentError, decompose, A * s) for s in (1.0, 2.0**20)]
            assert msgs[0] == msgs[1] and "fails to reproduce A" in msgs[0]

    def test_decompose_gates_orthogonality(self, monkeypatch):
        # A close pair whose idempotents turn by +/- t in their shared plane,
        # as Q-route noise does near a small gap: each stays rank one to t^2
        # (under the 1e-8 gate), completeness is exact and reconstruction and
        # eigen residuals are of order t * gap, but P1 o P2 = -t^2 (E11 + E22)
        # reads sqrt(2) t^2 = 1.3e-8 over RESIDUAL_RTOL.  Such a pair is
        # deflated; DEFLATE_TRACE = 0 keeps it on the Q route.
        A = JordanMatrix.diag(4.0, 2.0 + 2.0**-16, 2.0)
        N = JordanMatrix(c=1.0)._arr * 9.5e-5
        turn = np.stack([np.zeros_like(N), N, -N])
        monkeypatch.setattr(spectral, "DEFLATE_TRACE", 0.0)
        monkeypatch.setattr(spectral, "_purify", lambda P: with_op(_purify(P)[0] + turn))
        msgs = [self.message(InconsistentError, decompose, A * s) for s in (1.0, 2.0**20)]
        assert msgs[0] == msgs[1] and "not orthogonal eigenmatrices" in msgs[0]
        assert "orthogonality 1.27" in msgs[0]


def two_step_purify(P):
    """_purify as it was before it measured the defect: two unconditional
    steps, kept as reference."""
    for _ in range(2):
        P2 = _mul(P, P)
        P = P2 * 3.0 - _mul(P, P2) * 2.0
    return P


def q_route(A, lams):
    """Unpurified Q-route idempotents Q / tr Q of A, in Hermitian
    coordinates, for the roots lams."""
    Q = _q_stack(A._arr, lams)
    return Q / Q[:, :3].sum(axis=1)[:, None]


def near_double(gap, seed):
    """A matrix with spectrum (0.5, 0.5 + gap, -0.75) in a random frame."""
    dec = decompose(sampling.random_jordan(np.random.default_rng(seed)))
    return sum((P * lam for P, lam in zip(dec.idempotents, (0.5 + gap, 0.5, -0.75))),
               JordanMatrix.zero())


def defects(P):
    """|P o P - P| per root of a stack of coordinates, as Frobenius norms."""
    return [np.linalg.norm(x) for x in _frob(_mul(P, P) - P)]


class TestAdaptivePurification:
    """_purify steps only while some root of the stack is not idempotent to
    PURE_DEFECT, and returns L(P) for the residuals of decompose."""

    def test_idempotent_stack_is_returned_unchanged(self):
        rng = np.random.default_rng(31)
        frames = [np.eye(27)[:3]]
        for _ in range(20):
            A = sampling.random_jordan(rng)
            frames.append(q_route(A, solve_characteristic(*char_poly(A)).roots))
        for P in frames:
            assert max(defects(P)) <= PURE_DEFECT
            out, L = _purify(P)
            assert out is P
            assert L.tobytes() == _op(P).tobytes()

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_near_degenerate_stack_takes_both_steps(self, seed):
        A = near_double(1e-6, seed)
        lams = solve_characteristic(*char_poly(A)).roots
        P = q_route(A, lams)
        P2 = _mul(P, P)
        once = P2 * 3.0 - _mul(P, P2) * 2.0
        assert max(defects(once)) > PURE_DEFECT
        out, L = _purify(P)
        want = two_step_purify(P)
        assert out.tobytes() == want.tobytes()
        assert L.tobytes() == _op(want).tobytes()

    def test_near_triple_takes_the_second_step(self):
        # spectrum 0.3 (1, 1 + g, 1 + 2g), g = 1e-4: the deflated root's
        # Q / tr Q is idempotent to 1e-4 only, one step leaves 3e-8 to 1e-6,
        # which its eigenvector's rank-one gate refuses, and the second step
        # 1e-15 to 7e-11
        g = 1e-4
        rng = np.random.default_rng(24)
        hard = 0
        for _ in range(100):
            A = conjugated_spectrum(rng, (0.3 * (1.0 + 2.0 * g), 0.3 * (1.0 + g), 0.3))
            P = np.array([X._arr for X in decompose(A).idempotents])
            assert max(defects(P)) <= 1e-9
            Q = q_route(A, solve_characteristic(*char_poly(A)).roots[:1])
            Q2 = _mul(Q, Q)
            hard += max(defects(Q2 * 3.0 - _mul(Q, Q2) * 2.0)) > 1e-9
        assert hard > 50  # inputs on which one step is not enough


def conjugated_spectrum(rng, spectrum):
    """diag(spectrum) conjugated by the reflections M1, M2 of two random
    octonionic vectors through the public ``sandwich``: a matrix whose
    spectrum is known without any Q route."""
    A = JordanMatrix.diag(*spectrum)
    for _ in range(2):
        for M in f4.build_m1_m2(phase_align(sampling.random_vector(rng, span=8))):
            A = sandwich(M, A)
    return A


def close_pair(rng, gap):
    """A spectrum (descending) with two roots a relative gap apart (gap
    times the largest |lambda|), on top or at the bottom, and a third 0.2 to
    1 away; gap 0 gives an exact double root.  Returns it and the indices of
    the pair."""
    x = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
    y = x + rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
    top = max(abs(x), abs(y))
    return tuple(sorted((x, x + gap * top, y), reverse=True)), [0, 1] if y < x else [1, 2]


class TestCloseRoots:
    """Near pairs and exact doubles are deflated by nested reflections on
    the best-separated root, with the Q route only for that root; the pair's
    eigenvalues come from the reflected block, not from the cubic's merged
    mean, and the third from the reflected corner.  At gaps 1e-7 and 1e-8 the cubic merges the pair, which the
    Q route and the orthogonal-vector split could not resolve."""

    GAPS = [10.0**-k for k in range(2, 10)] + [0.0]

    @pytest.mark.parametrize("gap", GAPS, ids=[f"gap-{g:.0e}" for g in GAPS])
    def test_known_spectrum(self, gap):
        rng = np.random.default_rng(round(-math.log10(gap)) if gap else 99)
        for _ in range(20):
            spectrum, _ = close_pair(rng, gap)
            dec = decompose(conjugated_spectrum(rng, spectrum))
            scale = max(map(abs, spectrum))
            res = dec.residuals
            assert res["reconstruction"] <= 1e-13 * scale
            assert max(res["eigen"]) <= 1e-13 * scale
            assert res["orthogonality"] <= 1e-13
            error = np.abs(np.subtract(dec.eigenvalues, spectrum))
            assert error.max() <= 1e-14 * scale
            for P in dec.idempotents:
                check_primitive(P, atol=1e-13)


class TestNestedReflections:
    """decompose and diagonalize share one reduction: the Q route for the
    best-separated root, M1 and M2 of its eigenvector, and M3 of the block's
    cancellation-free eigenvector, whose eigenvalue nearer s comes first."""

    def test_diagonalize_near_pairs(self):
        # the pair as the two lower roots: not the best-separated one
        rng = np.random.default_rng(7)
        for k in range(2, 13):
            spectrum = (3.0, 1.0 + 10.0**-k, 1.0)
            for _ in range(20):
                res = diagonalize(conjugated_spectrum(rng, spectrum))
                assert res.residual <= 1e-14 * 3.0, k
                error = np.abs(np.sort(res.diagonal)[::-1] - spectrum).max()
                assert error <= 1e-14 * 3.0, k

    def test_block_with_s_below_t(self):
        # X = [[1, 1e-8], [1e-8, 2]] after M1 and M2: M3 must rotate z away
        res = diagonalize(JordanMatrix(1.0, 2.0, 0.0, a=e(1) * 1e-8))
        assert res.residual <= 1e-15
        assert res.diagonal[2] == 0.0

    def test_exact_doubles_at_zero_mtol(self, monkeypatch):
        # the cubic then reports the pair as two simple roots; reflecting
        # about either would feed a vanishing Q to the reflections
        monkeypatch.setattr(cubic, "MTOL", 0.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            spectrum, _ = close_pair(rng, 0.0)
            A = conjugated_spectrum(rng, spectrum)
            scale = max(map(abs, spectrum))
            assert diagonalize(A).residual <= 1e-14 * scale
            assert max(decompose(A).residuals["eigen"]) <= 1e-14 * scale

    def test_isolated_eigenvalue_is_the_reflected_corner(self):
        dec = decompose(JordanMatrix.diag(1.0, 1.001, 1.002))
        assert dec.eigenvalues[0] == 1.002
        assert dec.residuals["eigen"][0] <= 1e-15


class TestWorkDone:
    """Products per call on the common paths, counted exactly, so a change
    that restores wasted products fails here without timing: each product
    builds one L(x) (``_op``) and contracts with it (``_apply``).  No path
    unpacks the stored coordinates to the (3, 3, 8) array (``_unpack``): the
    24x24 real matrices of the oracle, ``matvec`` and ``sandwich`` come from
    the coordinates through the embedding tensor E.  Only ``sandwich`` packs
    an array back (``_pack``), once, for the Hermitian part of its product."""

    @staticmethod
    def counts(monkeypatch, fn, *args, names=("_op", "_apply")):
        jordan._structure_tensors()  # built, with E, on a process's first use: not counted
        calls = dict.fromkeys(names, 0)

        def counted(name):
            kernel = getattr(jordan, name)

            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)
            return wrapper

        with monkeypatch.context() as m:
            for name in calls:
                wrapper = counted(name)
                for module in (jordan, spectral, f4, oracle):
                    if hasattr(module, name):
                        m.setattr(module, name, wrapper)
            fn(*args)
        return calls

    def test_well_separated(self, monkeypatch):
        rng = np.random.default_rng(33)
        for _ in range(10):
            A = sampling.random_jordan(rng)
            roots = solve_characteristic(*char_poly(A)).roots
            assert min(roots[0] - roots[1], roots[1] - roots[2]) > 1.0
            assert self.counts(monkeypatch, decompose, A) == {"_op": 3, "_apply": 5}
            assert self.counts(monkeypatch, diagonalize, A) == {"_op": 5, "_apply": 9}

    # A deflated decompose: the Q route, its polishing check and the
    # extraction for the isolated root (3 and 3), L(M1) and L(M2) as one
    # stack (1) and their reflections of A (4), the pair mapped back (4),
    # its extraction (1 and 1), and L(P) and the residuals (1 and 2).  No
    # rank-one matrix is built from a vector, and the eigenvector's phase is
    # aligned on its array, not through the public ``phase_align``.
    DEFLATED = {"_op": 6, "_apply": 14, "rank1_from_vector": 0, "_outer": 0, "phase_align": 0}
    NAMES = tuple(DEFLATED)

    def test_double_root(self, monkeypatch):
        rng = np.random.default_rng(34)
        for _ in range(10):
            A = sampling.random_double_root_matrix(rng)[0]
            assert self.counts(monkeypatch, decompose, A, names=self.NAMES) == self.DEFLATED
            assert self.counts(monkeypatch, diagonalize, A,
                               names=("_op", "_apply", "phase_align")) == {
                "_op": 5, "_apply": 9, "phase_align": 0}

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_near_pair(self, monkeypatch, seed):
        A = near_double(1e-6, seed)
        assert solve_characteristic(*char_poly(A)).multiplicity == "distinct"
        assert self.counts(monkeypatch, decompose, A, names=self.NAMES) == self.DEFLATED

    # The double-root split: B * B for the rank-one gate, the extraction of
    # w (its B * B, 1 and 1) and v v-dagger.  It neither aligns a phase nor
    # goes through the public object-level products, nor converts to or from
    # (3, 3, 8) arrays.
    SPLIT = {"_op": 2, "_apply": 2, "_extract": 1, "_outer": 1, "phase_align": 0,
             "rank1_from_vector": 0, "freudenthal_product": 0, "_pack": 0, "_unpack": 0}

    def test_double_root_functions(self, monkeypatch):
        rng = np.random.default_rng(36)
        for _ in range(10):
            A, lam, _, _ = sampling.random_double_root_matrix(rng)
            assert self.counts(monkeypatch, double_root_split, A, lam,
                               names=tuple(self.SPLIT)) == self.SPLIT

    def test_one_format(self, monkeypatch):
        rng = np.random.default_rng(35)
        cases = [sampling.random_jordan(rng), sampling.random_double_root_matrix(rng)[0],
                 JordanMatrix.identity() * 3.0]
        v = sampling.random_vector(rng, span=8)
        for A in cases:
            # sandwich packs the Hermitian part of its product (M A) M, once
            for fn, args, packs in ((decompose, (A,), 0), (diagonalize, (A,), 0),
                                    (char_poly, (A,), 0), (jordan_product, (A, A), 0),
                                    (freudenthal_product, (A, A), 0),
                                    (modified_char_check, (A,), 0), (embed, (A,), 0),
                                    (matvec, (A, v), 0), (sandwich, (A, cases[0]), 1)):
                calls = self.counts(monkeypatch, fn, *args, names=("_pack", "_unpack"))
                assert calls == {"_pack": packs, "_unpack": 0}, fn.__name__

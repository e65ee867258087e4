import math
import warnings

import numpy as np
import pytest

from albert import sampling
from albert.config import ATOL, RESIDUAL_RTOL, RTOL, _rescale, _unit_scale
from albert.dirac import (
    CLASS_RTOL,
    Hermitian2,
    PSquareClass,
    classify_psquare,
    dirac_solve,
    psi_pack,
)
from albert.exceptions import InconsistentError, NonNullMomentumError
from albert.f4 import diagonalize
from albert.jordan import JordanMatrix, freudenthal_product, rank1_from_vector, sandwich
from albert.octonion import CONJ_SIGNS, Octonion, _ArrayValue, _norm, e


class TestHermitian2:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Hermitian2(s=bad)
        with pytest.raises(ValueError, match="finite"):
            Hermitian2(t=1.0, z=[0.0] * 7 + [bad])

    def test_construction_and_invariants(self):
        P = Hermitian2(s=3.0, t=1.0, z=e(7) * 2.0)
        assert P.trace() == 4.0
        assert P.det() == pytest.approx(3.0 - 4.0)  # st - |z|^2
        assert P.norm() == pytest.approx(math.sqrt(9 + 1 + 2 * 4))

    def test_trace_reversal(self):
        P = Hermitian2(s=3.0, t=1.0, z=e(2))
        Pt = P.trace_reversal()
        assert (Pt.s, Pt.t) == (-1.0, -3.0)
        assert Pt.z.isclose(P.z)
        # removing the trace twice restores the original
        assert Pt.trace_reversal().isclose(P)
        assert Pt.det() == pytest.approx(P.det())

    def test_arithmetic(self):
        P = Hermitian2.diag(1.0, 2.0)
        Q = Hermitian2(z=e(1))
        R = P + Q
        assert (R.s, R.t) == (1.0, 2.0)
        assert R.z.isclose(e(1))
        assert (P - P).norm() == 0.0
        assert (-P).s == -1.0
        assert (P * 2.0).t == 4.0
        assert (2.0 * P).t == 4.0
        assert (P / 2.0).t == 1.0

    def test_operators_take_the_same_type_and_real_scalars_only(self):
        P, J = Hermitian2(1.0, 1.0), JordanMatrix.identity()
        with pytest.raises(TypeError):
            P * "2"
        with pytest.raises(TypeError):
            P + J
        with pytest.raises(TypeError):
            J + P

    def test_from_outer(self):
        theta = (Octonion.from_real(2.0), e(3))
        P = Hermitian2.from_outer(theta)
        assert P.s == 4.0
        assert P.t == 1.0
        assert P.z.isclose(Octonion.from_real(2.0) * e(3).conjugate())
        assert abs(P.det()) <= 1e-14

    @pytest.mark.parametrize("k", [200, -200])
    def test_from_outer_out_of_range_is_inconsistency(self, k):
        # |theta|^2 = 2e400 overflows, 2e-400 underflows to zero
        x = 10.0**k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InconsistentError):
                Hermitian2.from_outer((Octonion.from_real(x), e(1) * x))

    def test_apply(self):
        P = Hermitian2.identity()
        psi = (e(1), e(2))
        out = P.apply(psi)
        assert out[0].isclose(e(1)) and out[1].isclose(e(2))

    def test_dict_round_trip(self):
        P = Hermitian2(s=1.5, t=-0.5, z=e(4) * 0.25)
        Q = Hermitian2.from_dict(P.to_dict())
        assert P.isclose(Q)
        assert sorted(P.to_dict()) == ["s", "t", "z"]

    def test_from_dict_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            Hermitian2.from_dict({"s": 1.0})
        with pytest.raises(ValueError):
            Hermitian2.from_dict({"s": 1.0, "t": 2.0, "z": [1.0, 2.0]})

    def test_from_dict_names_missing_key(self):
        with pytest.raises(ValueError, match=r"^invalid 2x2 Hermitian payload: missing key 'z'$"):
            Hermitian2.from_dict({"s": 1.0, "t": 1.0})


def _hermitian_array(s, t, z):
    arr = np.zeros((2, 2, 8))
    arr[0, 0, 0], arr[1, 1, 0] = s, t
    arr[0, 1], arr[1, 0] = z.coeffs, z.coeffs * CONJ_SIGNS
    return arr


def reference_dirac_solve(P):
    """dirac_solve as it was written on a (2, 2, 8) array and Octonion
    objects, kept as the reference its coordinate route must reproduce."""
    (arr,), e = _unit_scale((_hermitian_array(P.s, P.t, P.z), 2))
    s, t, z = float(arr[0, 0, 0]), float(arr[1, 1, 0]), Octonion(arr[0, 1])
    nrm = _norm(arr)
    det = s * t - z.norm2()
    if abs(det) > CLASS_RTOL * (1.0 + nrm) ** 2:
        raise NonNullMomentumError(
            f"det / |P|^2 = {det / nrm ** 2:.3e} exceeds tolerance; momentum is not null"
        )
    tr = s + t
    if abs(tr) <= ATOL + RTOL * (1.0 + nrm):
        return (Octonion.zero(), Octonion.zero()), 1
    sign = 1 if tr > 0.0 else -1
    s, t, z = s * sign, t * sign, z * float(sign)
    if s >= t:
        piv = math.sqrt(max(s, 0.0))
        theta = (Octonion.from_real(piv), z.conjugate() / piv)
    else:
        piv = math.sqrt(max(t, 0.0))
        theta = (z / piv, Octonion.from_real(piv))
    t1, t2 = theta
    resid = _norm(arr - _hermitian_array(t1.norm2(), t2.norm2(), t1 * t2.conjugate()) * sign)
    if resid > RESIDUAL_RTOL * (1.0 + nrm):
        raise InconsistentError(
            f"rank-one factor residual / |P| = {resid / nrm:.3e} out of tolerance"
        )
    return tuple(map(Octonion, _rescale(e, *((x.coeffs, 1) for x in theta)))), sign


def _outcome(solve, P):
    try:
        theta, sign = solve(P)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return np.array([x.coeffs for x in theta]), sign


class TestDiracSolve:
    def test_projection_plus(self):
        theta, sign = dirac_solve(Hermitian2.diag(1.0, 0.0))
        assert sign == 1
        assert theta[0].isclose(Octonion.from_real(1.0))
        assert theta[1].norm() == 0.0

    def test_negative_momentum(self):
        theta, sign = dirac_solve(Hermitian2.diag(-2.0, 0.0))
        assert sign == -1
        assert theta[0].isclose(Octonion.from_real(math.sqrt(2.0)))
        assert theta[1].norm() == 0.0

    def test_off_diagonal_example(self):
        # s = t = 1, z = e7 is null with trace 2
        theta, sign = dirac_solve(Hermitian2(s=1.0, t=1.0, z=e(7)))
        assert sign == 1
        assert theta[0].isclose(Octonion.from_real(1.0))
        assert theta[1].isclose(-e(7))

    def test_zero_momentum(self):
        theta, sign = dirac_solve(Hermitian2())
        assert sign == 1
        assert theta[0].norm() == 0.0 and theta[1].norm() == 0.0

    def test_non_null_rejected(self):
        with pytest.raises(NonNullMomentumError):
            dirac_solve(Hermitian2.identity())

    def test_round_trip_seeded(self):
        rng = np.random.default_rng(70)
        for _ in range(1000):
            P, theta0, sign0 = sampling.random_null_hermitian2(rng)
            theta, sign = dirac_solve(P)
            recon = Hermitian2.from_outer(theta) * float(sign)
            assert (P - recon).norm() <= 1e-10 * (1.0 + P.norm())
            assert sign == sign0

    def test_matches_reference_route(self):
        rng = np.random.default_rng(77)
        for _ in range(2000):
            P = sampling.random_null_hermitian2(rng)[0]
            (got, sign), (want, want_sign) = (_outcome(f, P) for f in (dirac_solve,
                                                                        reference_dirac_solve))
            assert sign == want_sign
            assert np.abs(got - want).max() <= 2.0 * np.spacing(np.abs(want).max())

    @pytest.mark.parametrize("P", [
        Hermitian2.identity(),                       # not null
        Hermitian2(),                                # zero
        Hermitian2.diag(3.0, 0.0),
        Hermitian2.diag(-3.0, 0.0),
        Hermitian2.diag(0.0, 5.0),
        Hermitian2.diag(1.0, 2.4e-7),                # null to CLASS_RTOL, not to RESIDUAL_RTOL
        Hermitian2.diag(2.0**600, 2.0**600),         # not null
        Hermitian2.diag(2.0**600, 0.0),
        Hermitian2(s=1.0, t=1.0, z=e(7)),
    ])
    def test_edge_cases_match_reference_route(self, P):
        got, want = _outcome(dirac_solve, P), _outcome(reference_dirac_solve, P)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert got[1] == want[1]
            assert np.allclose(got[0], want[0], rtol=4e-16, atol=0.0)

    def test_builds_only_the_returned_octonions(self, monkeypatch):
        built = []
        init = _ArrayValue.__init__

        def counted(obj, arr):
            built.append(type(obj))
            init(obj, arr)

        rng = np.random.default_rng(78)
        momenta = [sampling.random_null_hermitian2(rng)[0] for _ in range(50)]
        momenta += [Hermitian2(), Hermitian2.diag(-2.0, 0.0)]
        monkeypatch.setattr(_ArrayValue, "__init__", counted)
        for P in momenta:
            del built[:]
            dirac_solve(P)
            assert built.count(Octonion) == 2

    def test_solution_annihilated_by_trace_reversal(self):
        # psi = theta xi solves P~ psi = 0 for any octonionic xi
        rng = np.random.default_rng(71)
        for _ in range(200):
            P, theta0, sign = sampling.random_null_hermitian2(rng)
            theta, _ = dirac_solve(P)
            xi = sampling.random_octonion(rng)
            psi = (theta[0] * xi, theta[1] * xi)
            out = P.trace_reversal().apply(psi)
            mag = math.hypot(out[0].norm(), out[1].norm())
            assert mag <= 1e-10 * (1.0 + P.norm()) * (1.0 + xi.norm())


class TestPsiPack:
    def test_unit_theta_no_xi_scaling(self):
        Psi, PP = psi_pack((Octonion.from_real(1.0), Octonion.zero()), Octonion.from_real(1.0))
        assert PP.isclose(JordanMatrix.diag(1, 0, 1) + JordanMatrix(b=Octonion.from_real(1.0)))
        assert Psi.components[2].isclose(Octonion.from_real(1.0))

    def test_block_layout(self):
        t1, t2 = Octonion.from_real(0.6), e(1) * 0.8
        xi = e(2)
        Psi, PP = psi_pack((t1, t2), xi)
        assert Psi.components[0].isclose(t1)
        assert Psi.components[1].isclose(t2)
        assert Psi.components[2].isclose(xi.conjugate())
        assert PP.p == pytest.approx(t1.norm2())
        assert PP.m == pytest.approx(t2.norm2())
        assert PP.n == pytest.approx(xi.norm2())
        assert PP.a.isclose(t1 * t2.conjugate())
        assert PP.b.isclose((t1 * xi).conjugate())
        assert PP.c.isclose(t2 * xi)

    def test_rank_one_for_complex_theta(self):
        rng = np.random.default_rng(72)
        for _ in range(1000):
            theta = sampling.random_complex_theta(rng)
            xi = sampling.random_octonion(rng)
            _, PP = psi_pack(theta, xi)
            scale = (1.0 + PP.norm()) ** 2
            assert freudenthal_product(PP, PP).norm() <= 1e-9 * scale

    def test_trace_is_psi_norm(self):
        rng = np.random.default_rng(73)
        theta = sampling.random_complex_theta(rng)
        xi = sampling.random_octonion(rng)
        Psi, PP = psi_pack(theta, xi)
        t1, t2 = theta
        expect = (t1.norm2() + t2.norm2()) + xi.norm2()
        assert PP.trace() == pytest.approx(expect)


class TestPsiPackScale:
    """PP is formed on Psi / 2^e and multiplied back by 2^2e."""

    @staticmethod
    def sample(k):
        rng = np.random.default_rng(75)
        s = math.ldexp(1.0, k)
        theta = sampling.random_complex_theta(rng)
        return tuple(t * s for t in theta), sampling.random_octonion(rng) * s

    @pytest.mark.parametrize("k", [-400, -300, -40, 3, 40, 300])
    def test_exact_under_power_of_two_scaling(self, k):
        _, want = psi_pack(*self.sample(0))
        _, got = psi_pack(*self.sample(k))
        assert np.array_equal(got.to_array(), np.ldexp(want.to_array(), 2 * k))

    def test_overflow_is_inconsistency_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InconsistentError):
                psi_pack(*self.sample(600))

    @pytest.mark.parametrize("k", [-600, -530])
    def test_underflow_is_inconsistency(self, k):
        # |Psi|^2 is about 2^(2k): zero at -600, subnormal at -530
        with pytest.raises(InconsistentError, match="underflows"):
            psi_pack(*self.sample(k))


class TestClassify:
    def test_examples(self):
        assert classify_psquare(JordanMatrix.identity()).p == 3
        assert classify_psquare(JordanMatrix.diag(1, 1, 0)).p == 2
        assert classify_psquare(JordanMatrix.diag(1, 0, 0)).p == 1
        assert classify_psquare(JordanMatrix.zero()).p == 0

    def test_traceless_rank_two(self):
        A = JordanMatrix.diag(1, -1, 0)
        out = classify_psquare(A)
        assert out.p == 2
        assert out.trace == 0.0

    def test_scale_covariant(self):
        rng = np.random.default_rng(74)
        for _ in range(100):
            A = sampling.random_jordan(rng)
            assert classify_psquare(A * 1000.0).p == classify_psquare(A * 1e-3).p

    def test_matches_nonzero_eigenvalue_count(self):
        from albert.spectral import decompose

        rng = np.random.default_rng(75)
        for _ in range(200):
            draw = rng.uniform()
            if draw < 0.4:
                A = sampling.random_jordan(rng)
            elif draw < 0.7:
                v = sampling.random_vector(rng, span=4)
                A = rank1_from_vector(v)  # rank one
            else:
                A, lam, sign, w = sampling.random_double_root_matrix(rng)
            dec = decompose(A)
            count = sum(1 for lam in dec.eigenvalues if abs(lam) > 1e-7 * (1.0 + A.norm()))
            assert classify_psquare(A).p == count

    def test_invariant_under_diagonalization_steps(self):
        rng = np.random.default_rng(76)
        for _ in range(100):
            A = sampling.random_jordan(rng)
            p0 = classify_psquare(A).p
            B = A
            for M in diagonalize(A).steps:
                B = sandwich(M, B)
                assert classify_psquare(B).p == p0

    def test_result_payload(self):
        out = classify_psquare(JordanMatrix.diag(1, 2, 3))
        assert isinstance(out, PSquareClass)
        d = out.to_dict()
        assert sorted(d) == ["det", "p", "sigma", "trace"]
        assert d["p"] == 3
        assert d["det"] == pytest.approx(6.0)

import math

import numpy as np
import pytest

from albert import jordan, octonion, oracle, sampling
from albert.config import _rescale
from albert.jordan import JordanMatrix, OctVector3, _embed, _quadratic, matvec
from albert.octonion import CONJ_SIGNS, MUL_TENSOR, Octonion, _norm, e
from albert.oracle import (
    CLUSTER_GAP_RTOL,
    R_COLLAPSE_RTOL,
    cluster_values,
    coords_vector,
    embed,
    modified_char_check,
    vector_coords,
)


def left_mult(x):
    return np.einsum("b,bac->ca", x.coeffs, MUL_TENSOR)


def entrywise_conjugate(A):
    """Transpose of the Hermitian layout: conjugate every off-diagonal."""
    return JordanMatrix(
        p=A.p, m=A.m, n=A.n,
        a=A.a.conjugate(), b=A.b.conjugate(), c=A.c.conjugate(),
    )


class TestEmbedding:
    def test_identity_embeds_to_identity(self):
        assert np.array_equal(embed(JordanMatrix.identity()), np.eye(24))

    def test_always_symmetric(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            M = embed(sampling.random_jordan(rng))
            assert np.array_equal(M, M.T)

    def test_diagonal_blocks_scale_identity(self):
        M = embed(JordanMatrix.diag(2, 3, 5))
        expect = np.zeros((24, 24))
        for k, val in enumerate((2.0, 3.0, 5.0)):
            expect[8 * k : 8 * k + 8, 8 * k : 8 * k + 8] = val * np.eye(8)
        assert np.array_equal(M, expect)

    def test_offdiagonal_blocks_are_left_multiplications(self):
        A = JordanMatrix(a=e(1))
        M = embed(A)
        L = left_mult(e(1))
        assert np.array_equal(M[0:8, 8:16], L)
        assert np.array_equal(M[8:16, 0:8], L.T)

    def test_matches_matvec(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            A = sampling.random_jordan(rng)
            v = sampling.random_vector(rng, span=8)
            lhs = embed(A) @ vector_coords(v)
            rhs = vector_coords(matvec(A, v))
            assert np.allclose(lhs, rhs, atol=1e-13 * (1 + A.norm() * v.norm()))

    def test_coords_round_trip(self):
        rng = np.random.default_rng(62)
        v = sampling.random_vector(rng, span=8)
        assert coords_vector(vector_coords(v)).isclose(v)
        with pytest.raises(ValueError):
            coords_vector(np.zeros(23))


class TestClustering:
    def test_groups_by_gap(self):
        vals = np.array([3.0, 3.0 + 1e-9, 2.0, 1.0, 1.0 - 1e-9, 1.0 + 1e-9])
        vals = np.sort(vals)[::-1]
        out = cluster_values(vals, 1e-6)
        assert [c[1] for c in out] == [2, 1, 3]
        assert out[0][0] == pytest.approx(3.0, abs=1e-9)

    def test_singletons(self):
        out = cluster_values(np.array([5.0, 3.0, 1.0]), 1e-6)
        assert out == [(5.0, 1), (3.0, 1), (1.0, 1)]


def clusters_by_loop(values, gap):
    """The per-element loop cluster_values used before it went to arrays,
    kept as the reference for its output bits."""
    values = np.asarray(values, dtype=float)
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or abs(values[i] - values[i - 1]) > gap:
            chunk = values[start:i]
            clusters.append((float(chunk.mean()), len(chunk)))
            start = i
    return clusters


def hexes(clusters):
    return [(mean.hex(), count) for mean, count in clusters]


class TestArrayClustering:
    """cluster_values equals the per-element loop, means bit for bit."""

    def test_random_sorted(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            vals = np.sort(rng.uniform(-2.0, 2.0, rng.integers(1, 30)))
            gap = float(rng.uniform(0.0, 0.3))
            for v in (vals, vals[::-1]):
                assert hexes(cluster_values(v, gap)) == hexes(clusters_by_loop(v, gap))

    def test_gaps_exactly_at_gap(self):
        # dyadic steps make every difference exact, so many equal the gap
        rng = np.random.default_rng(72)
        gap, at_gap = 0.25, 0
        for _ in range(200):
            vals = np.cumsum(rng.choice([0.0, 0.125, 0.25, 0.5], rng.integers(1, 25)))[::-1]
            at_gap += np.count_nonzero(vals[:-1] - vals[1:] == gap)
            assert hexes(cluster_values(vals, gap)) == hexes(clusters_by_loop(vals, gap))
        assert at_gap > 200

    def test_all_singletons_and_one_run(self):
        rng = np.random.default_rng(73)
        spread = np.sort(rng.uniform(-1.0, 1.0, 24))[::-1] + np.arange(24.0)[::-1]
        assert [c for _, c in cluster_values(spread, 0.5)] == [1] * 24
        assert hexes(cluster_values(spread, 0.5)) == hexes(clusters_by_loop(spread, 0.5))
        run = 1.0 + np.sort(rng.uniform(0.0, 1e-9, 24))[::-1]
        assert cluster_values(run, 1e-6) == clusters_by_loop(run, 1e-6)
        assert [c for _, c in cluster_values(run, 1e-6)] == [24]

    def test_empty(self):
        assert cluster_values(np.array([]), 1.0) == []


class TestModifiedCharCheck:
    @pytest.mark.parametrize("span", [8, 4])
    def test_residuals_equal_per_cluster_shift(self, span):
        # one kernel call on all cluster means gives what a shifted
        # matrix per cluster gave, bit for bit
        rng = np.random.default_rng(74 + span)
        for _ in range(50):
            A = sampling.random_jordan(rng, span=span)
            for lam, _, r in modified_char_check(A).clusters:
                assert r.hex() == (-(A - JordanMatrix.identity() * lam).det()).hex()


    def test_real_diagonal_all_residuals_zero(self):
        report = modified_char_check(JordanMatrix.diag(1, 2, 3))
        assert report.passed
        assert len(report.clusters) == 3
        assert [mult for _, mult, _ in report.clusters] == [8, 8, 8]
        assert sorted(lam for lam, _, _ in report.clusters) == pytest.approx([1.0, 2.0, 3.0])
        for _, _, r in report.clusters:
            assert abs(r) <= 1e-8

    def test_octonionic_two_sided_collapse(self):
        rng = np.random.default_rng(64)
        for _ in range(30):
            A = sampling.random_jordan(rng)
            report = modified_char_check(A)
            scale = (1.0 + A.norm()) ** 3
            assert report.passed
            assert len(report.clusters) <= 6
            assert sum(m for _, m, _ in report.clusters) == 24
            rs = [r for _, _, r in report.clusters]
            assert max(rs) >= -1e-6 * scale
            assert min(rs) <= 1e-6 * scale

    def test_jordan_eigenvalues_satisfy_unmodified_equation(self):
        from albert.cubic import solve_characteristic
        from albert.jordan import char_poly

        rng = np.random.default_rng(65)
        for _ in range(30):
            A = sampling.random_jordan(rng)
            roots = solve_characteristic(*char_poly(A))
            scale = (1.0 + A.norm()) ** 3
            for lam in roots.roots:
                d = (A - JordanMatrix.identity() * lam).det()
                assert abs(d) <= 1e-8 * scale

    def test_quaternionic_residuals_are_zero_and_conjugate_offset(self):
        # With entries in an associative subalgebra the 24 eigenvalues are
        # the roots of A and of its entrywise conjugate, each four times.
        # Residuals vanish on A's own roots; on the conjugate family they
        # all equal det(conj(A)) - det(A).
        rng = np.random.default_rng(66)
        for _ in range(30):
            A = sampling.random_jordan(rng, span=4)
            delta = entrywise_conjugate(A).det() - A.det()
            scale = (1.0 + A.norm()) ** 3
            report = modified_char_check(A)
            assert report.passed
            assert sum(m for _, m, _ in report.clusters) == 24
            for _, _, r in report.clusters:
                near_zero = abs(r) <= 1e-8 * scale
                near_delta = abs(r - delta) <= 1e-8 * scale
                assert near_zero or near_delta
            # at least one cluster sits on A's own spectrum
            assert any(abs(r) <= 1e-8 * scale for _, _, r in report.clusters)

    def test_conjugate_offset_formula(self):
        # det(conj(A)) - det(A) = -4 (vec a) . (vec b x vec c) over the
        # quaternionic imaginary components e1..e3
        rng = np.random.default_rng(67)
        for _ in range(100):
            A = sampling.random_jordan(rng, span=4)
            delta = entrywise_conjugate(A).det() - A.det()
            va, vb, vc = (x.coeffs[1:4] for x in (A.a, A.b, A.c))
            formula = -4.0 * float(np.dot(va, np.cross(vb, vc)))
            assert abs(delta - formula) <= 1e-10 * (1.0 + A.norm()) ** 3

    def test_clusters_descending(self):
        rng = np.random.default_rng(68)
        for _ in range(30):
            lams = [lam for lam, _, _ in modified_char_check(sampling.random_jordan(rng)).clusters]
            assert all(x > y for x, y in zip(lams, lams[1:]))

    def test_zero_matrix(self):
        report = modified_char_check(JordanMatrix.zero())
        assert [(mult, r) for _, mult, r in report.clusters] == [(24, 0.0)]
        assert report.passed

    def test_report_dict(self):
        d = modified_char_check(JordanMatrix.diag(1, 2, 3)).to_dict()
        assert d["pass"] is True
        assert sorted(d["clusters"][0]) == ["lambda", "mult", "r"]


def check_by_arrays(A):
    """modified_char_check as it was with its tail on arrays: the unit scale
    from abs().max(), the shifted determinant on an array of cluster means,
    and the r groups clustered after np.sort, each clustering with the bits
    of clusters_by_loop (TestArrayClustering).  Returns (clusters, passed)."""
    top = abs(A._arr).max()
    e = math.frexp(top)[1] if top else 0
    a = np.ldexp(A._arr, -e) if e else A._arr
    eigs = np.linalg.eigvalsh(_embed(a))[::-1]
    spread = float(eigs[0] - eigs[-1])
    gap = CLUSTER_GAP_RTOL * spread
    lam_clusters = clusters_by_loop(eigs, gap) if spread > 0 else [(float(eigs[0]), len(eigs))]
    lams, mults = zip(*lam_clusters)
    diag, (x, y, z), (na, nb, nc), _ = _quadratic(a)
    re_bac = float((y * CONJ_SIGNS) @ (octonion.left_mult(x) @ z))
    p, m, n = (d - np.array(lams) for d in diag)
    rs = -(p * m * n + 2.0 * re_bac - n * na - m * nb - p * nc)
    r_tol = R_COLLAPSE_RTOL * (1.0 + _norm(a)) ** 3
    r_groups = clusters_by_loop(np.sort(rs), r_tol)
    passed = (
        len(r_groups) <= 2
        and r_groups[0][0] <= r_tol
        and r_groups[-1][0] >= -r_tol
    )
    lams, rs = _rescale(e, (lams, 1), (rs.tolist(), 3))
    return tuple(zip(lams, mults, rs)), bool(passed)


def outcome(check, A):
    """Hex bits of every lambda, mult and r and the pass flag, or the type of
    the exception raised."""
    try:
        clusters, passed = check(A)
    except Exception as exc:  # the type is the outcome
        return type(exc)
    return [(lam.hex(), mult, r.hex()) for lam, mult, r in clusters], passed


def new_check(A):
    report = modified_char_check(A)
    assert type(report.passed) is bool
    assert all(type(lam) is float and type(mult) is int and type(r) is float
               for lam, mult, r in report.clusters)
    return report.clusters, report.passed


class TestFloatTail:
    """The tail on Python floats keeps every output bit of the array tail."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(75)
        fixed = [JordanMatrix.diag(1, 2, 3), JordanMatrix.zero(), JordanMatrix.identity()]
        for k in (-600, -1, 1, 600):
            fixed.append(JordanMatrix.diag(1, 2, 3) * 2.0**k)
        yield from fixed
        for i in range(600):
            A = sampling.random_jordan(rng, span=(8, 4)[i % 2])
            if i % 3 == 0:
                A = sampling.random_double_root_matrix(rng)[0]
            if i % 4 >= 2:
                A = A * math.ldexp(1.0, int(rng.integers(-600, 601)))
            yield A

    def test_bits_equal_the_array_tail(self):
        raised = failed = 0
        for A in self.cases():
            want = outcome(check_by_arrays, A)
            assert outcome(new_check, A) == want
            raised += isinstance(want, type)
            failed += not isinstance(want, type) and not want[1]
        assert raised > 20  # r out of the double range at 2^k, k near 600
        assert failed < raised  # most inputs reach the pass decision


class TestWorkDone:
    """One modified_char_check makes exactly one eigensolve, one call of the
    determinant kernel (on a tuple of floats), one unit-scale decision and no
    array sort, so a tail that returns to per-cluster or array calls fails
    without timing."""

    def test_one_call_each(self, monkeypatch):
        calls = {}

        def count(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls.setdefault(name, []).append(args)
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(np.linalg, "eigvalsh")
        count(jordan, "_invariants")
        count(oracle, "_unit_scale")
        count(np, "sort")
        rng = np.random.default_rng(76)
        cases = [JordanMatrix.diag(1, 2, 3), JordanMatrix.zero()]
        cases += [sampling.random_jordan(rng, span=span) * 2.0**k
                  for span in (8, 4) for k in (0, 300, -300)]
        for A in cases:
            calls.clear()
            modified_char_check(A)
            assert {name: len(args) for name, args in calls.items()} == {
                "eigvalsh": 1, "_invariants": 1, "_unit_scale": 1}
            lams = calls["_invariants"][0][1]
            assert type(lams) is tuple and all(type(lam) is float for lam in lams)

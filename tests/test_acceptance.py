"""End-to-end acceptance checks, one per contracted capability.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS/FAIL`` line before
asserting, so the suite output doubles as a checklist.  Tolerances here are
the contract; the unit suites may test tighter.  The residual of each
identity is the one its ``albert.verify`` suite computes, folded here over
the test's own seeded stream by ``verify._fold``.
"""

import json
import subprocess
import sys

import numpy as np

from albert import sampling
from albert.cubic import solve_characteristic
from albert.dirac import classify_psquare
from albert.jordan import JordanMatrix, char_poly, jordan_product, rank1_from_vector
from albert.octonion import MUL_INDEX, MUL_SIGN
from albert.oracle import cluster_values, modified_char_check
from albert.spectral import decompose
from albert.verify import (
    _fold,
    _reflected,
    _suite_cayley_plane,
    _suite_char_equation,
    _suite_decomposition,
    _suite_dirac_roundtrip,
    _suite_double_root,
    _suite_f4_invariants,
    _suite_f4_offdiagonal,
    _suite_moufang,
    _suite_polarized_closure,
    _suite_rank_one_packing,
    _suite_springer,
    _suite_trace_reversal_identity,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} - {detail}")
    assert ok, f"acceptance {num} ({name}): {detail}"


def _table_product(i: int, j: int) -> tuple[int, int]:
    """Integer basis product e_i e_j -> (sign, index)."""
    return int(MUL_SIGN[i, j]), int(MUL_INDEX[i, j])


def test_1_octonion_exactness():
    # Integer-table laws, exactly.
    anticommute = all(
        MUL_INDEX[i, j] == MUL_INDEX[j, i] and MUL_SIGN[i, j] == -MUL_SIGN[j, i]
        for i in range(1, 8)
        for j in range(1, 8)
        if i != j
    )

    def mul(term_a, term_b):
        sa, ia = term_a
        sb, ib = term_b
        s, k = _table_product(ia, ib)
        return (sa * sb * s, k)

    alternative = True
    for i in range(8):
        for j in range(8):
            ei, ej = (1, i), (1, j)
            alternative &= mul(mul(ei, ei), ej) == mul(ei, mul(ei, ej))
            alternative &= mul(mul(ei, ej), ej) == mul(ei, mul(ej, ej))

    norm_composed = all(
        abs(MUL_SIGN[i, j]) == 1 for i in range(8) for j in range(8)
    )

    worst = _fold(_suite_moufang, np.random.default_rng(101), 1000)
    moufang_ok = worst <= 1e-10

    ok = anticommute and alternative and norm_composed and moufang_ok
    _report(
        1, "octonion-exactness", ok,
        f"table laws exact={anticommute and alternative and norm_composed}, "
        f"Moufang worst relative residual {worst:.2e} over both bracketings "
        f"(limit 1e-10)",
    )


def test_2_characteristic_equation():
    worst = _fold(_suite_char_equation, np.random.default_rng(102), 1000)
    ok = worst <= 1e-9
    _report(
        2, "characteristic-equation", ok,
        f"worst relative residual {worst:.2e} over 1000 samples (limit 1e-9)",
    )


def test_3_identity_suite():
    rng = np.random.default_rng(103)
    worst_springer, worst_reversal, worst_closure = (
        _fold(suite, rng, 1000)
        for suite in (_suite_springer, _suite_trace_reversal_identity, _suite_polarized_closure)
    )
    ok = max(worst_springer, worst_reversal, worst_closure) <= 1e-9
    _report(
        3, "product-identity-suite", ok,
        f"worst relative residuals: square-of-adjoint {worst_springer:.2e}, "
        f"trace-reversal {worst_reversal:.2e}, polarized closure "
        f"{worst_closure:.2e} (limit 1e-9 each)",
    )


def test_4_spectral_decomposition():
    # a complex-root or inconsistent decomposition raises, failing the test
    worst_dec, worst_point = (
        _fold(suite, np.random.default_rng(104), 1000)
        for suite in (_suite_decomposition, _suite_cayley_plane)
    )
    ok = worst_dec <= 1e-8 and worst_point <= 1e-8
    _report(
        4, "spectral-decomposition", ok,
        f"worst relative residuals: eigen, orthogonality, completeness and "
        f"reconstruction {worst_dec:.2e}, point condition and off-diagonal "
        f"associator {worst_point:.2e} (limit 1e-8 each)",
    )


def test_5_degenerate_branches():
    rng = np.random.default_rng(105)
    worst_double = _fold(_suite_double_root, rng, 200)
    double_ok = worst_double <= 1e-8

    triple_ok = True
    for lam in (-2.0, 0.0, 3.5):
        dec = decompose(JordanMatrix.identity() * lam)
        triple_ok &= dec.eigenvalues == (lam, lam, lam)
        triple_ok &= all(
            dec.idempotents[k].isclose(JordanMatrix.diag(*(1.0 * (j == k) for j in range(3))))
            for k in range(3)
        )

    eps = 1e-3
    split_ok = True
    worst_perturbed = 0.0
    for _ in range(200):
        A, lam, sign, w = sampling.random_double_root_matrix(rng)
        E = sampling.random_jordan(rng)
        B = A + E * (eps / (1.0 + E.norm()))
        dec = decompose(B)
        split_ok &= len(set(dec.eigenvalues)) == 3
        for lam_i, P in zip(dec.eigenvalues, dec.idempotents):
            resid = (jordan_product(A, P) - P * lam_i).norm()
            worst_perturbed = max(worst_perturbed, resid)
    perturb_ok = split_ok and worst_perturbed <= 10 * eps

    ok = double_ok and triple_ok and perturb_ok
    _report(
        5, "degenerate-branches", ok,
        f"double-root worst eigen and split residual {worst_double:.2e} over 200 "
        f"(limit 1e-8), triple-root exact={triple_ok}, perturbed doubles "
        f"split={split_ok} with worst unperturbed-matrix residual "
        f"{worst_perturbed:.2e} (limit {10 * eps:.0e})",
    )


def test_6_diagonalization():
    worst_inv, worst_diag = (
        _fold(suite, np.random.default_rng(106), 1000)
        for suite in (_suite_f4_invariants, _suite_f4_offdiagonal)
    )
    ok = worst_inv <= 1e-9 and worst_diag <= 1e-8
    _report(
        6, "nested-reflection-diagonalization", ok,
        f"worst per-step invariant drift {worst_inv:.2e} (limit 1e-9), "
        f"off-diagonal residual and diagonal-vs-roots gap {worst_diag:.2e} "
        f"over 1000 samples (limit 1e-8)",
    )


def test_7_real_oracle_residual_collapse():
    rng = np.random.default_rng(107)

    oct_ok = True
    worst_cluster_count = 0
    worst_root_det = 0.0
    for _ in range(200):
        A = sampling.random_jordan(rng)
        scale3 = (1.0 + A.norm()) ** 3
        report = modified_char_check(A)
        worst_cluster_count = max(worst_cluster_count, len(report.clusters))
        oct_ok &= len(report.clusters) <= 6
        rs = np.sort(np.array([r for _, _, r in report.clusters]))
        groups = cluster_values(rs, 1e-6 * scale3)
        oct_ok &= len(groups) <= 2
        oct_ok &= groups[0][0] <= 1e-6 * scale3 and groups[-1][0] >= -1e-6 * scale3
        roots = solve_characteristic(*char_poly(A))
        for lam in roots.roots:
            d = abs((A - JordanMatrix.identity() * lam).det())
            worst_root_det = max(worst_root_det, d / scale3)
    oct_ok &= worst_root_det <= 1e-8

    worst_quat_r = 0.0
    for _ in range(200):
        A = sampling.random_jordan(rng, span=4)
        scale3 = (1.0 + A.norm()) ** 3
        report = modified_char_check(A)
        for _, _, r in report.clusters:
            worst_quat_r = max(worst_quat_r, abs(r) / scale3)
    quat_ok = worst_quat_r <= 1e-8

    ok = oct_ok and quat_ok
    _report(
        7, "real-oracle-residual-collapse", ok,
        f"octonionic: clusters<=6 and two-sided residual collapse "
        f"{'hold' if oct_ok else 'FAIL'}, worst root determinant "
        f"{worst_root_det:.2e} (limit 1e-8); quaternionic: worst relative "
        f"residual {worst_quat_r:.2e} against limit 1e-8."
        " The quaternionic clause demands every 24x24 eigenvalue satisfy the"
        " unmodified determinant equation, but half the spectrum belongs to"
        " the entrywise-conjugate matrix: left action on the non-quaternionic"
        " half of the coordinates composes through conjugated entries, so 12"
        " of the 24 eigenvalues are roots of det(conj(A) - t I) = 0, whose"
        " residual against det(A - t I) is the constant"
        " det(conj(A)) - det(A) = -4 (vec a).(vec b x vec c) -- order one for"
        " generic quaternionic entries, zero only when the imaginary parts"
        " are coplanar. One residual group is always exactly zero (the"
        " matrix's own roots); the other cannot be forced under 1e-8. See"
        " the oracle-quaternionic suite in albert.verify for the attainable"
        " form of this check.",
    )


def test_8_momentum_and_packing():
    rng = np.random.default_rng(108)
    worst_round = _fold(_suite_dirac_roundtrip, rng, 1000)
    round_ok = worst_round <= 1e-10

    worst_pack = _fold(_suite_rank_one_packing, rng, 1000)
    pack_ok = worst_pack <= 1e-9

    mismatches = 0
    step_mismatches = 0
    for k in range(1000):
        draw = rng.uniform()
        if draw < 0.4:
            A = sampling.random_jordan(rng)
        elif draw < 0.7:
            A = rank1_from_vector(sampling.random_vector(rng, span=4))
        else:
            A, lam, sign, w = sampling.random_double_root_matrix(rng)
        dec = decompose(A)
        count = sum(
            1 for lam in dec.eigenvalues if abs(lam) > 1e-7 * (1.0 + A.norm())
        )
        p0 = classify_psquare(A).p
        if p0 != count:
            mismatches += 1
        if k < 200:
            step_mismatches += sum(classify_psquare(B).p != p0 for B in _reflected(A))
    class_ok = mismatches == 0 and step_mismatches == 0

    ok = round_ok and pack_ok and class_ok
    _report(
        8, "null-momentum-and-rank-one-packing", ok,
        f"factor round-trip worst {worst_round:.2e} (limit 1e-10), packed "
        f"rank-one worst {worst_pack:.2e} (limit 1e-9), class-vs-eigenvalue "
        f"mismatches {mismatches} and class drift under reflection steps "
        f"{step_mismatches} (limits 0)",
    )


def test_9_cli_determinism(child_env):
    cmd = [sys.executable, "-m", "albert.cli", "verify", "--seed", "42",
           "--count", "1000", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, timeout=600,
                           env=child_env)
    second = subprocess.run(cmd, capture_output=True, timeout=600,
                            env=child_env)
    codes_ok = first.returncode == 0 and second.returncode == 0
    bytes_ok = first.stdout == second.stdout
    report_ok = False
    if codes_ok:
        payload = json.loads(first.stdout)
        report_ok = payload["pass"] and len(payload["rows"]) == 17
    ok = codes_ok and bytes_ok and report_ok
    _report(
        9, "cli-verify-determinism", ok,
        f"exit codes ({first.returncode}, {second.returncode}), "
        f"byte-identical={bytes_ok}, all suites pass={report_ok} "
        f"({len(first.stdout)} bytes per run)",
    )

import json
from pathlib import Path

import numpy as np
import pytest

from albert import sampling
from albert.jordan import JordanMatrix, OctVector3
from albert.verify import _SUITES, run_verification

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@pytest.mark.parametrize("span", [8, 4, 2])
def test_block_samplers_match_per_entry_draws(span):
    # the reference draws p, m, n and then each octonion one call at a time,
    # the order that fixes every seeded verify stream
    fast, ref = np.random.default_rng(span), np.random.default_rng(span)
    for _ in range(200):
        A = sampling.random_jordan(fast, span)
        B = JordanMatrix(*(ref.uniform(-1.0, 1.0) for _ in range(3)),
                         *(sampling.random_octonion(ref, span) for _ in range(3)))
        assert A.to_array().tobytes() == B.to_array().tobytes()
        v = sampling.random_vector(fast, span)
        w = OctVector3([sampling.random_octonion(ref, span) for _ in range(3)])
        assert v.to_array().tobytes() == w.to_array().tobytes()


def test_suite_names_match_benchmark_layers():
    # the benchmark times each suite as the per-layer metric verify.suite.<name>_s
    layers = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    suites = [name[len("verify.suite."):-len("_s")] for name in layers
              if name.startswith("verify.suite.")]
    assert [name for name, _ in _SUITES] == suites


class TestRunVerification:
    def test_small_batch_all_pass(self):
        report = run_verification(count=15, seed=7)
        assert report.passed
        assert report.count == 15
        assert len(report.rows) == 17
        for row in report.rows:
            assert row.passed, f"{row.name}: {row.max_residual} > {row.threshold}"
            assert row.max_residual <= row.threshold

    def test_oracle_suites_run_full_count(self):
        report = run_verification(count=300, seed=7)
        by_name = {row.name: row for row in report.rows}
        assert by_name["oracle-octonionic"].samples == 300
        assert by_name["oracle-quaternionic"].samples == 300

    def test_byte_deterministic(self):
        a = json.dumps(run_verification(count=12, seed=5).to_dict(), sort_keys=True)
        b = json.dumps(run_verification(count=12, seed=5).to_dict(), sort_keys=True)
        assert a == b

    def test_suites_use_independent_streams(self):
        # changing the seed perturbs every suite's measured residual
        r1 = run_verification(count=12, seed=5)
        r2 = run_verification(count=12, seed=6)
        diffs = sum(
            1 for a, b in zip(r1.rows, r2.rows) if a.max_residual != b.max_residual
        )
        assert diffs >= 15

    def test_report_dict_shape(self):
        d = run_verification(count=10, seed=3).to_dict()
        assert sorted(d) == ["count", "pass", "rows", "seed"]
        assert sorted(d["rows"][0]) == [
            "max_residual", "name", "pass", "samples", "threshold",
        ]

    @pytest.mark.parametrize("count, seed", [(0, 42), (-3, 42), (1, -1)])
    def test_rejects_unusable_count_or_seed(self, count, seed):
        with pytest.raises(ValueError, match="^need count >= 1 and seed >= 0"):
            run_verification(count=count, seed=seed)

import json
import shutil
import subprocess
import sys

import pytest

from albert import cli
from albert.exceptions import InconsistentError
from albert.octonion import Octonion


def matrix_payload(p=0.0, m=0.0, n=0.0, a=None, b=None, c=None):
    zero = [0.0] * 8
    return {
        "p": p, "m": m, "n": n,
        "a": a or zero, "b": b or zero, "c": c or zero,
    }


def inline(payload):
    return json.dumps(payload)


DIAG123 = matrix_payload(p=1.0, m=2.0, n=3.0)
ONE = [1.0] + [0.0] * 7
ALL_ONES = matrix_payload(a=ONE, b=ONE, c=ONE)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCharpoly:
    def test_json(self, capsys):
        code, out, err = run_cli(capsys, "charpoly", "--inline", inline(DIAG123))
        assert code == 0
        data = json.loads(out)
        assert data["trace"] == 6.0
        assert data["sigma"] == 11.0
        assert data["det"] == 6.0
        assert data["multiplicity"] == "distinct"
        assert data["roots"] == pytest.approx([3.0, 2.0, 1.0])

    def test_text(self, capsys):
        code, out, err = run_cli(
            capsys, "charpoly", "--inline", inline(DIAG123), "--format", "text"
        )
        assert code == 0
        assert "trace = 6" in out
        assert "distinct" in out

    def test_mtol_override_merges_near_roots(self, capsys):
        near = matrix_payload(p=1.0, m=1.0 + 1e-5, n=2.0)
        code, out, _ = run_cli(capsys, "charpoly", "--inline", inline(near))
        assert json.loads(out)["multiplicity"] == "distinct"
        code, out, _ = run_cli(
            capsys, "charpoly", "--inline", inline(near), "--mtol", "1e-3"
        )
        assert json.loads(out)["multiplicity"] == "double"


class TestDecompose:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--inline", inline(DIAG123))
        assert code == 0
        data = json.loads(out)
        assert data["eigenvalues"] == pytest.approx([3.0, 2.0, 1.0])
        assert data["idempotents"][0]["n"] == pytest.approx(1.0)
        assert data["residuals"]["reconstruction"] <= 1e-10

    def test_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--inline", inline(DIAG123), "--format", "text"
        )
        assert code == 0
        assert out.count("eigenvalue") == 3
        assert "residuals:" in out


class TestDiagonalize:
    def test_all_ones(self, capsys):
        code, out, _ = run_cli(capsys, "diagonalize", "--inline", inline(ALL_ONES))
        assert code == 0
        data = json.loads(out)
        assert sorted(data["diagonal"]) == pytest.approx([-1.0, -1.0, 2.0])
        assert data["residual"] <= 1e-10
        assert len(data["steps"]) == 3


class TestClassify:
    def test_full_rank(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--inline", inline(DIAG123))
        assert code == 0
        assert json.loads(out)["p"] == 3

    def test_rank_one_text(self, capsys):
        rank1 = matrix_payload(p=1.0)
        code, out, _ = run_cli(
            capsys, "classify", "--inline", inline(rank1), "--format", "text"
        )
        assert code == 0
        assert "p-square class: 1" in out


class TestOracle:
    def test_all_ones(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--inline", inline(ALL_ONES))
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        lams = sorted(c["lambda"] for c in data["clusters"])
        assert lams[0] == pytest.approx(-1.0, abs=1e-8)
        assert lams[-1] == pytest.approx(2.0, abs=1e-8)
        assert sum(c["mult"] for c in data["clusters"]) == 24
        for c in data["clusters"]:
            assert abs(c["r"]) <= 1e-8

    def test_text_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--inline", inline(DIAG123), "--format", "text"
        )
        assert code == 0
        assert out.strip().endswith("PASS")


class TestDirac:
    def test_off_diagonal_null(self, capsys):
        e7 = [0.0] * 7 + [1.0]
        payload = {"s": 1.0, "t": 1.0, "z": e7}
        code, out, _ = run_cli(capsys, "dirac", "--inline", inline(payload))
        assert code == 0
        data = json.loads(out)
        assert data["sign"] == 1
        assert data["theta"][0] == pytest.approx(ONE)
        assert data["theta"][1][7] == pytest.approx(-1.0)
        assert data["residual"] <= 1e-12

    def test_non_null_is_invalid_input(self, capsys):
        payload = {"s": 1.0, "t": 1.0, "z": [0.0] * 8}
        code, out, err = run_cli(capsys, "dirac", "--inline", inline(payload))
        assert code == 2
        assert "error:" in err and "not null" in err


class TestInputValidation:
    def test_malformed_json_reports_position(self, capsys):
        code, out, err = run_cli(capsys, "charpoly", "--inline", '{"p": 1,,}')
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_missing_input(self, capsys):
        code, out, err = run_cli(capsys, "charpoly")
        assert code == 2
        assert "exactly one" in err

    def test_both_inputs(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(inline(DIAG123))
        code, out, err = run_cli(
            capsys, "charpoly", "--input", str(f), "--inline", inline(DIAG123)
        )
        assert code == 2

    def test_schema_error(self, capsys):
        code, out, err = run_cli(capsys, "charpoly", "--inline", '{"p": 1}')
        assert code == 2

    def test_unreadable_file(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "charpoly", "--input", str(tmp_path / "missing.json")
        )
        assert code == 2

    def test_non_object_payload(self, capsys):
        code, out, err = run_cli(capsys, "charpoly", "--inline", "[1, 2, 3]")
        assert code == 2

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", [*cli._MATRIX_COMMANDS, "dirac"])
    def test_non_finite_entry(self, capsys, command, token):
        if command == "dirac":
            payload = {"s": float(token), "t": 0.0, "z": [0.0] * 8}
        else:
            payload = matrix_payload(p=float(token))
        text = inline(payload)
        assert token in text
        code, out, err = run_cli(capsys, command, "--inline", text)
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload", [
        matrix_payload(p=2.0**600, m=1.0, n=-2.0**599, a=[2.0**599] * 8),
        matrix_payload(p=2.0**400),
    ], ids=["invariants-overflow", "cubic-overflows"])
    @pytest.mark.parametrize("command", cli._MATRIX_COMMANDS)
    def test_overflow_is_inconsistency(self, capsys, command, payload):
        # Exit 0 with the known spectrum when every output fits in a double;
        # charpoly and classify print sigma ~ 2^1201 and det ~ 2^1800 for
        # the first matrix, so they exit 1 there.
        huge = payload["p"] == 2.0**600
        spectrum = (2.0**601, -2.0**599, -2.0**600) if huge else (2.0**400, 0.0, 0.0)
        code, out, err = run_cli(capsys, command, "--inline", inline(payload))
        assert "Traceback" not in err
        if huge and command in ("charpoly", "classify"):
            assert code == 1
            assert "inconsistency:" in err
            assert out == ""
            return
        assert code == 0
        assert err == ""
        data = json.loads(out)
        scale = spectrum[0]
        values = {
            "charpoly": lambda: data["roots"],
            "decompose": lambda: data["eigenvalues"],
            "diagonalize": lambda: sorted(data["diagonal"], reverse=True),
            "classify": lambda: [data["trace"], 0.0, 0.0],
            "oracle": lambda: [c["lambda"] for c in data["clusters"]] + [0.0],
        }[command]()
        assert all(abs(x - y) <= 1e-8 * scale for x, y in zip(values, spectrum))
        if command == "classify":
            assert (data["p"], data["sigma"], data["det"]) == (1, 0.0, 0.0)
        if command == "oracle":
            assert data["pass"] is True
            assert all(c["r"] == 0.0 for c in data["clusters"])

    def test_dirac_overflow_is_inconsistency(self, capsys):
        # det P = 2^1200 does not fit in a double, but P is plainly not
        # null, which is invalid input
        payload = {"s": 2.0**600, "t": 2.0**600, "z": [0.0] * 8}
        code, out, err = run_cli(capsys, "dirac", "--inline", inline(payload))
        assert code == 2
        assert "error:" in err and "not null" in err
        assert out == ""

    def test_dirac_huge_null_momentum(self, capsys):
        payload = {"s": 2.0**600, "t": 0.0, "z": [0.0] * 8}
        code, out, err = run_cli(capsys, "dirac", "--inline", inline(payload))
        assert code == 0
        assert err == ""
        data = json.loads(out)
        assert data["theta"] == [[2.0**300] + [0.0] * 7, [0.0] * 8]
        assert data["sign"] == 1 and data["residual"] == 0.0

    def test_file_input(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(inline(DIAG123))
        code, out, _ = run_cli(capsys, "charpoly", "--input", str(f))
        assert code == 0
        assert json.loads(out)["det"] == 6.0


class TestInternalInconsistency:
    def test_maps_to_exit_one(self, capsys, monkeypatch):
        def boom(A):
            raise InconsistentError("forced failure")

        monkeypatch.setattr(cli, "decompose", boom)
        code, out, err = run_cli(capsys, "decompose", "--inline", inline(DIAG123))
        assert code == 1
        assert "inconsistency:" in err


class TestVerify:
    def test_deterministic_output(self, capsys):
        args = ("verify", "--seed", "42", "--count", "20")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["pass"] is True
        assert data["seed"] == 42
        assert all(row["pass"] for row in data["rows"])

    def test_seed_changes_stream(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--seed", "1", "--count", "10")
        _, out2, _ = run_cli(capsys, "verify", "--seed", "2", "--count", "10")
        assert out1 != out2

    def test_text_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--seed", "3", "--count", "10", "--format", "text"
        )
        assert code == 0
        assert out.strip().endswith("PASS")


class TestEntryPoint:
    @pytest.mark.skipif(
        shutil.which("albert") is None,
        reason="no `albert` console script on PATH; install the package",
    )
    def test_installed_script(self):
        proc = subprocess.run(
            ["albert", "charpoly", "--inline", inline(DIAG123)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["det"] == 6.0

    def test_module_invocation(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "albert.cli", "classify",
             "--inline", inline(DIAG123)],
            capture_output=True, text=True, timeout=120, env=child_env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["p"] == 3

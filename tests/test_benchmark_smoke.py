import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke(child_env):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--smoke"],
        cwd=ROOT, env=child_env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"

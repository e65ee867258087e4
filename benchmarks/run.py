"""Benchmark of the albert package: four seeded workloads, checked outputs.

Usage, from the repository root::

    python3 benchmarks/run.py --workload generic --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --smoke

``--trace 0`` prints the end-to-end metrics of one workload, measured with no
profiler attached.  ``--trace 1`` prints the per-layer metrics instead: direct
timed calls into each module plus a separate cProfile run (see ``layers.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and the outcome classes.  ``--smoke`` runs every
workload at tiny size in both modes and asserts that every metric named in
``BENCHMARK.json`` is emitted with its unit and that the checks ran.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("generic", "spectrum-edge", "oracle", "cli")
# One closed-loop caller on a 2-core machine: BLAS gets one thread, and the
# benchmark and every interpreter it spawns run on one CPU, so a timing and
# the reference job paired with it see the same processor.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _load_package():
    src = ROOT / "src"
    if not (src / "albert" / "__init__.py").is_file():
        print(f"error: no albert package under {src}", file=sys.stderr)
        sys.exit(2)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    import albert

    if Path(albert.__file__).resolve().parent != (src / "albert").resolve():
        print(f"error: imported albert from {albert.__file__}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "albert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    head = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30,
                                  check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):  # no usable git here
            pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_head": head,
        "src_sha256": digest.hexdigest(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    if trace:
        import layers

        res = layers.run(workload, seed, seconds, smoke)
    else:
        import workloads

        res = workloads.run(workload, seed, seconds, smoke)
    entries = spec()["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in entries}
    extra = sorted(set(res["metrics"]) - set(metrics))
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {extra}")
    return res, metrics, entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload in both modes, asserting the output")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    _load_package()

    import warnings

    # Overflow and invalid-value warnings are outcomes the checks classify.
    warnings.simplefilter("ignore", RuntimeWarning)
    if args.smoke:
        return smoke(args.seed)

    res, metrics, entries = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"env": environment()}))
    print(json.dumps({"detail": res["detail"]}))
    for m in entries:
        print(f"{m['name']:40s} {metrics[m['name']]['value']:>16.6g} {m['unit']:10s} "
              f"{m['better']} is better")
    print(json.dumps({"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0


def smoke(seed: int) -> int:
    """Every workload, both modes, tiny inputs: assert names, units, checks."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            res, metrics, entries = run_once(workload, seed, 0.05, trace, smoke=True)
            tag = f"{workload} trace={int(trace)}"
            if not res["correct"]:
                problems.append(f"{tag}: outputs not reproducible")
            if res["attempted"] < 1 or not res["detail"].get("outcomes"):
                problems.append(f"{tag}: no checked calls")
            for m in entries:
                if m["better"] not in ("higher", "lower"):
                    problems.append(f"{tag}: {m['name']} has no direction")
                value = metrics[m["name"]]["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{tag}: {m['name']} = {value!r}")
                elif not trace and value == 0:
                    problems.append(f"{tag}: end-to-end {m['name']} is 0")
            print(f"smoke {tag}: {len(metrics)} metrics, {res['attempted']} calls, "
                  f"outcomes {res['detail']['outcomes']}")
    for p in problems:
        print("smoke FAIL", p)
    print("smoke", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating pairs of benchmark runs on two checkouts, summarised by the
rule a performance claim must meet.

Usage, from the repository root::

    python3 tools/ab_pairs.py BASE HEAD --workload oracle --seed 7 --pairs 10

BASE and HEAD are two checkouts of the repository (for a parent commit,
``git archive <commit> | tar -x -C DIR`` gives one).  Each pair runs
``benchmarks/run.py`` of each checkout once, in that checkout, on the
workload and seed given, for the ``run_seconds`` of ``BENCHMARK.json`` and
with tracing off; BASE runs first in odd pairs and HEAD first in even ones.
Every run's end-to-end metrics and failed count are printed as it ends.

Then, per end-to-end metric of ``BENCHMARK.json``, it prints each side's
median and quartiles over its runs, the number of pairs HEAD won (its run
better in the metric's direction; ties count for neither), and two
verdicts:

- ``gain``: HEAD won at least nine tenths of the pairs and the medians
  differ, in HEAD's favour, by more than the distance between BASE's
  quartiles;
- ``worse``: HEAD's median is worse than BASE's by more than the metric's
  bound, as a share of BASE's median.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one ``benchmarks/run.py`` run in ``checkout``."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # run.py imports the src/ beside it
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, interpolated linearly
    between order statistics (numpy's default percentile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(metric: dict, base: list[float], head: list[float]) -> dict:
    """The verdicts on one metric from its paired values (pair i is
    ``base[i]``, ``head[i]``)."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    (b1, b2, b3), (h1, h2, h3) = quartiles(base), quartiles(head)
    gain = sign * (h2 - b2)
    worse = -gain / abs(b2) if b2 else (math.inf if gain < 0 else 0.0)
    return {"base": (b1, b2, b3), "head": (h1, h2, h3), "wins": wins, "pairs": len(base),
            "gain": wins >= 0.9 * len(base) and gain > b3 - b1,
            "worse": worse, "bound": metric.get("bound"),
            "regressed": metric.get("bound") is not None and worse > metric["bound"]}


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> None:
    for side in ("base", "head"):
        failed = [run["failed"] for run in runs[side]]
        print(f"{side}: failed {failed} of {runs[side][0]['attempted']} per run,"
              f" correct {all(run['correct'] for run in runs[side])}")
    for metric in metrics:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in ("base", "head")}
        s = summarise(metric, values["base"], values["head"])
        print(f"{name} ({metric['unit']}, {metric['better']} is better)")
        for side in ("base", "head"):
            q1, q2, q3 = s[side]
            print(f"  {side}: median {q2:.6g}, quartiles {q1:.6g} .. {q3:.6g}")
        bound = "no bound" if s["bound"] is None else f"bound {100 * s['bound']:.0f} %"
        print(f"  head won {s['wins']} of {s['pairs']} pairs; gain {'yes' if s['gain'] else 'no'};"
              f" head median {100 * abs(s['worse']):.1f} %"
              f" {'worse' if s['worse'] > 0 else 'better'} than base ({bound}):"
              f" {'REGRESSED' if s['regressed'] else 'within bound'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            run = run_benchmark(getattr(args, side).resolve(), args.workload, args.seed,
                                config["run_seconds"])
            runs[side].append(run)
            values = ", ".join(f"{k} {v['value']:.6g}" for k, v in run["metrics"].items())
            print(f"pair {i + 1} {side}: failed {run['failed']}, {values}", flush=True)
    report(config["end_to_end"], runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""How far two checkouts' outputs move apart on a benchmark workload's inputs.

Usage, from the repository root::

    python3 tools/output_diff.py BASE HEAD --workload spectrum-edge --seed 1 2 3

BASE and HEAD are two checkouts of the repository (for a parent commit,
``git archive <commit> | tar -x -C DIR`` gives one).  Each side runs in its
own interpreter with ``PYTHONPATH=<checkout>/src`` and BLAS on one thread,
as ``benchmarks/run.py`` runs it.  Both call the workload's matrix entry
points of ``benchmarks/workloads.py`` (``charpoly``, ``decompose``,
``diagonalize`` and ``classify``, or ``oracle`` for ``--workload oracle``)
on the same inputs, which are built by the ``benchmarks/`` next to this
file and hashed on each side, and write every output in its JSON form.

Per entry point the report gives how many outputs moved (any bit of any
number, or the raised error), and how many per kind of input with the
largest relative movement of a whole output; then per field the number
moved and the largest relative movement: max |a - b| over the field, divided by the
largest |a| or |b| in it.  For a list of numbers (``eigenvalues``,
``diagonal``) it adds the movement of the sorted lists, which reads 0 where
the values only changed order.

With ``--cli`` it compares the command line instead, on the invocations of
the ``cli`` workload (every ``python -m albert.cli`` call
``benchmarks/workloads.py`` makes for the seeds, ``verify`` included), each
run as it is and again with ``--format text``::

    python3 tools/output_diff.py BASE HEAD --cli --seed 1 2 3

Per command and format it reports how many stdout byte strings and exit
statuses differ between the two checkouts, and how many stderr texts.  It
then runs the usage errors and help requests of ``USAGE_ARGVS`` in both
checkouts and prints each one's exit statuses, whether its stdout moved, and
both stderr texts where they differ.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# Runs in each checkout: argv is the benchmarks directory, the workload and
# the seeds; prints one JSON object.
CHILD = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import workloads

name, seeds = sys.argv[2], [int(s) for s in sys.argv[3:]]
out, digest = [], hashlib.sha256()
for seed in seeds:
    for case in workloads.make_cases(name, seed, smoke=False):
        digest.update(case.X.tobytes())
        A = workloads.checks.Subject(case).A
        row = {"kind": case.kind}
        for entry in workloads.WORKLOAD_ENTRIES[name]:
            fn, to_dict, _ = workloads.ENTRIES[entry]
            try:
                row[entry] = to_dict(fn(A))
            except Exception as exc:
                row[entry] = {"error": type(exc).__name__}
        out.append(row)
print(json.dumps({"inputs": digest.hexdigest(), "outputs": out,
                  "entries": workloads.WORKLOAD_ENTRIES[name]}))
"""

# Prints the argv lists of the cli workload's invocations for the seeds.
CLI_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads

argvs = []
for seed in map(int, sys.argv[2:]):
    cases = workloads.make_cases("cli", seed, smoke=False)
    rng = workloads.rng_for("cli-momenta", seed)
    momenta = [workloads.inputs.null_momentum(rng) for _ in cases]
    argvs += [[cmd, "--inline", json.dumps(payload)]
              for cmd, payload, _ in workloads.cli_invocations(cases, momenta)]
    argvs.append(["verify", "--seed", str(seed), "--count", str(workloads.VERIFY_COUNT)])
print(json.dumps(argvs))
"""


# Malformed command lines and help requests; M stands for MATRIX.
MATRIX = json.dumps({"p": 1.0, "m": 2.0, "n": 3.0, "a": [0.0] * 8, "b": [0.0] * 8,
                     "c": [0.0] * 8})
USAGE_ARGVS = [
    ["--help"],
    ["decompose", "-h"],
    ["decompose", "--bogus", "1", "--inline", MATRIX],
    ["decompose", "--inl", MATRIX],
    ["decompose", "--inline"],
    ["charpoly", "--inline", MATRIX, "--mtol", "0"],
    ["dirac", "--inline", json.dumps({"s": 0.5, "t": 0.0, "z": [0.0] * 8}), "--atol", "1"],
    ["verify", "--count", "1.5"],
    ["decompose", "--inline", MATRIX, "--format", "xml"],
    ["decompose", "verify", "--inline", MATRIX],
    ["--inline", MATRIX],
    ["decompose", "--seed", "1", "--inline", MATRIX],
    ["verify", "--inline", "{}"],
]


def side_env(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    return env


def run_side(checkout: Path, workload: str, seeds) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, str(BENCHMARKS), workload,
                           *map(str, seeds)], capture_output=True, env=side_env(checkout),
                          check=True)
    return json.loads(proc.stdout)


def cli_diff(base: Path, head: Path, seeds) -> None:
    """Run every cli-workload invocation, as JSON and as text, in both
    checkouts and print per command and format what differs."""
    argvs = json.loads(subprocess.run(
        [sys.executable, "-c", CLI_CHILD, str(BENCHMARKS), *map(str, seeds)],
        capture_output=True, env=side_env(head), check=True).stdout)
    counts = {}
    for argv in argvs:
        for fmt, extra in (("json", []), ("text", ["--format", "text"])):
            base_proc, head_proc = (subprocess.run(
                [sys.executable, "-m", "albert.cli", *argv, *extra], capture_output=True,
                env=side_env(side), timeout=600) for side in (base, head))
            row = counts.setdefault((argv[0], fmt), [0, 0, 0, 0])
            row[0] += 1
            row[1] += base_proc.stdout != head_proc.stdout
            row[2] += base_proc.returncode != head_proc.returncode
            row[3] += base_proc.stderr != head_proc.stderr
    print(f"cli, seeds {' '.join(map(str, seeds))}: {len(argvs)} invocations, two formats each")
    for (command, fmt), (n, stdout, status, stderr) in counts.items():
        print(f"{command} --format {fmt}: {stdout} of {n} stdout moved,"
              f" {status} changed exit status, {stderr} changed stderr")
    print(f"usage errors and help, {len(USAGE_ARGVS)} invocations:")
    for argv in USAGE_ARGVS:
        base_proc, head_proc = (subprocess.run(
            [sys.executable, "-m", "albert.cli", *argv], capture_output=True, text=True,
            env=side_env(side), timeout=600) for side in (base, head))
        shown = " ".join("M" if arg == MATRIX else arg for arg in argv)
        print(f"  albert {shown}: exit {base_proc.returncode} -> {head_proc.returncode},"
              f" stdout {'moved' if base_proc.stdout != head_proc.stdout else 'same'},"
              f" stderr {'changed' if base_proc.stderr != head_proc.stderr else 'same'}")
        if base_proc.stderr != head_proc.stderr:
            for side, proc in (("base", base_proc), ("head", head_proc)):
                print("".join(f"    {side}| {line}\n" for line in proc.stderr.splitlines()),
                      end="")


def leaves(x) -> list[float]:
    """The numbers of a JSON value in order; a string counts as NaN."""
    if isinstance(x, dict):
        return [v for k in sorted(x) for v in leaves(x[k])]
    if isinstance(x, list):
        return [v for item in x for v in leaves(item)]
    return [math.nan if isinstance(x, str) else float(x)]


def movement(a, b) -> float:
    """0 for bit-identical values, else max |a - b| over max |a|, |b|; inf
    when the shapes differ or a number is not finite."""
    a, b = leaves(a), leaves(b)
    if len(a) != len(b):
        return math.inf
    if all(x.hex() == y.hex() for x, y in zip(a, b)):
        return 0.0
    diff = max(abs(x - y) for x, y in zip(a, b))
    scale = max(map(abs, a + b))
    return diff / scale if math.isfinite(diff) and scale > 0 else math.inf


def report(base: list, head: list, entries) -> None:
    kinds = sorted({row["kind"] for row in base})
    for entry in entries:
        pairs = [(b[entry], h[entry]) for b, h in zip(base, head)]
        moves = [movement(b, h) for b, h in pairs]
        errors = sum(b.get("error") != h.get("error") for b, h in pairs)
        print(f"{entry}: {sum(m != 0.0 for m in moves)} of {len(pairs)} outputs moved,"
              f" {errors} changed outcome")
        by_kind = [[m for m, row in zip(moves, base) if row["kind"] == kind] for kind in kinds]
        print("  by input kind: " + ", ".join(
            f"{kind} {sum(m != 0.0 for m in ms)}/{len(ms)} (largest {max(ms):.1e})"
            for kind, ms in zip(kinds, by_kind)))
        fields = sorted({k for b, h in pairs for k in b.keys() & h.keys()} - {"error"})
        for field in fields:
            both = [(b[field], h[field]) for b, h in pairs if field in b and field in h]
            moves = [movement(b, h) for b, h in both]
            line = (f"  {field}: {sum(m != 0.0 for m in moves)} of {len(both)} moved,"
                    f" largest {max(moves, default=0.0):.2e}")
            if all(isinstance(b, list) and all(isinstance(v, (int, float)) for v in b)
                   for b, _ in both):
                sorted_moves = [movement(sorted(b), sorted(h)) for b, h in both]
                line += f", sorted {max(sorted_moves, default=0.0):.2e}"
            print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("head", type=Path)
    ap.add_argument("--workload", default="generic",
                    choices=("generic", "spectrum-edge", "oracle"))
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    ap.add_argument("--cli", action="store_true",
                    help="compare the cli workload's command-line invocations instead")
    args = ap.parse_args(argv)

    if args.cli:
        cli_diff(args.base, args.head, args.seed)
        return 0

    base, head = (run_side(p, args.workload, args.seed) for p in (args.base, args.head))
    if base["inputs"] != head["inputs"]:
        print("error: the two sides built different inputs", file=sys.stderr)
        return 2
    print(f"{args.workload}, seeds {' '.join(map(str, args.seed))}: "
          f"{len(base['outputs'])} inputs, sha256 {base['inputs'][:12]}")
    report(base["outputs"], head["outputs"], head["entries"])
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: inputs, timed closed loop, checks and end-to-end metrics.

One caller, closed loop: each call starts after the previous one returned.
In-process workloads check every input once, untimed, which also warms the
interpreter, then time whole passes over the same inputs until ``seconds`` of
call time have accumulated; every timed call must reproduce the output it gave
in the checked pass.  The ``cli`` workload spawns a fresh interpreter per
call, so it pays start-up each time on purpose and has no warm-up.

Latency percentiles cover results whose every call passed.  Failed calls are
counted, not timed as results, so a fix that turns fast failures into full
solves does not read as a slowdown.  ``attempted`` and ``failed`` count each
distinct checked call once (an entry point on an input, a CLI invocation, a
verify run), not each timed repetition of it: a call's outcome is a property
of its input, repetitions must reproduce it exactly, and so both counts
depend on the seed alone and not on how many passes fit in ``seconds``.

Host speed on the reference machine drifts between levels up to 1.6x apart,
in phases of several seconds, which is longer than a run can average away.
So every timing is paired with a fixed reference job run just before it,
and reported in reference units: its time over the reference's time, times
the reference's nominal duration.  In-process, the reference is
``calibration_block``, nominally ``CALIBRATION_MS``, and one result's latency
is the median of its ratios over its repetitions.  For spawned interpreters
(``cli`` calls and ``setup_s``) it is a spawn of ``python -c "import numpy"``,
nominally ``REFERENCE_SPAWN_S``, run before each timed spawn; a call's
latency and ``setup_s`` are medians of those paired ratios.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from albert import (
    char_poly,
    classify_psquare,
    decompose,
    diagonalize,
    modified_char_check,
    solve_characteristic,
)

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
CALIBRATION_MS = 0.2  # the calibration block's duration at the reference speed
REFERENCE_SPAWN_S = 0.15  # a python -c "import numpy" spawn at the reference speed
VERIFY_COUNT = 10  # samples per suite; at most the 200-sample oracle cap

# Per-workload pool sizes: (full run, smoke run).
SIZES = {"generic": (128, 3), "spectrum-edge": (5, 1), "oracle": (140, 2), "cli": (2, 1)}


def _charpoly(A):
    cp = char_poly(A)
    return cp, solve_characteristic(*cp)


def _charpoly_dict(out) -> dict:
    (tr, sigma, det), roots = out
    return {"trace": tr, "sigma": sigma, "det": det, **roots.to_dict()}


# name -> (call, JSON form, cheap signature for the determinism check)
ENTRIES = {
    "charpoly": (_charpoly, _charpoly_dict, lambda o: o[1].roots),
    "decompose": (decompose, lambda o: o.to_dict(), lambda o: o.eigenvalues),
    "diagonalize": (diagonalize, lambda o: o.to_dict(), lambda o: o.diagonal),
    "classify": (classify_psquare, lambda o: o.to_dict(), lambda o: (o.p, o.det)),
    "oracle": (modified_char_check, lambda o: o.to_dict(), lambda o: o.clusters),
}
MATRIX_ENTRIES = ("charpoly", "decompose", "diagonalize", "classify")
WORKLOAD_ENTRIES = {"generic": MATRIX_ENTRIES, "spectrum-edge": MATRIX_ENTRIES,
                    "oracle": ("oracle",)}
CLI_COMMANDS = ("charpoly", "decompose", "diagonalize", "classify", "oracle", "dirac")
# Every input of these workloads lies in the range the package supports, so a
# failed call there is a wrong program and makes the run incorrect.  The
# spectrum-edge workload probes the edges, where some defects are known; its
# failures are what it measures, and are reported as ``failed``.
GATED = ("generic", "oracle", "cli")


_CAL_X = np.linspace(-1.0, 1.0, 72).reshape(3, 3, 8)


def calibration_block() -> float:
    """Seconds taken by fixed work shaped like the package's: interpreted
    arithmetic, small numpy products and short-lived objects; the fastest of
    three tries."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200):
            acc += i * 0.5
        inputs.matmul(_CAL_X, _CAL_X)
        {k: (k, acc) for k in range(50)}
        best = min(best, time.perf_counter() - t0)
    return best


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def timed_spawn(argv, check: bool = False) -> tuple[float, subprocess.CompletedProcess]:
    """Seconds from spawn to exit of a fresh interpreter, and its result."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, env=child_env(),
                          cwd=ROOT, timeout=120, check=check)
    return time.perf_counter() - t0, proc


def paired_spawn(argv, check: bool = False) -> tuple[float, float, subprocess.CompletedProcess]:
    """A spawn's seconds, and its time over that of a reference spawn run just
    before it."""
    ref = timed_spawn(["-c", "import numpy"], check=True)[0]
    dt, proc = timed_spawn(argv, check=check)
    return dt, dt / ref, proc


def rng_for(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(name.encode())])


def sample_matrix(seed: int) -> dict:
    """A full octonionic matrix with a well-separated spectrum, on which every
    entry point succeeds; set-up and single-command timings use it."""
    return inputs.to_dict(inputs.known_spectrum(rng_for("sample", seed))[0])


def make_cases(name: str, seed: int, smoke: bool) -> list[inputs.Case]:
    rng = rng_for(name, seed)
    size = SIZES[name][1 if smoke else 0]
    if name == "generic":
        return inputs.generic_cases(rng, size)
    if name == "spectrum-edge":
        cases = inputs.spectrum_edge_cases(rng, size)
        order = rng.permutation(len(cases))  # spread the mix over each pass
        return [cases[i] for i in order]
    if name == "oracle":
        return inputs.oracle_cases(rng, size)
    return [inputs.Case(*inputs.known_spectrum(rng), "known") for _ in range(size)]


# -- checking ------------------------------------------------------------------


def check_matrix_case(sub: checks.Subject, outs: dict, kind: str) -> dict:
    """Outcome and worst residual per entry; ``outs`` maps entry -> dict or exception.

    Without a spectrum known by construction, decompose's eigenvalues (when
    its residuals certify them) or else the checked cubic roots are the
    reference for diagonalize and classify.
    """
    result = {}

    def run(name, fn, *args):
        out = outs[name]
        result[name] = ((checks.outcome_of_exception(out), math.nan)
                        if isinstance(out, Exception) else fn(out, *args))

    ref = sub.ref
    if "charpoly" in outs:
        run("charpoly", checks.check_charpoly, sub, ref)
    if "decompose" in outs:
        run("decompose", checks.check_decompose, sub, ref)
    if ref is None:
        for name, key in (("decompose", "eigenvalues"), ("charpoly", "roots")):
            if name in outs and result[name][0] == "pass":
                ref = np.sort(sub.unit(outs[name][key]))[::-1]
                break
    if "diagonalize" in outs:
        run("diagonalize", checks.check_diagonalize, sub, ref)
    if "classify" in outs:
        run("classify", checks.check_classify, sub, ref)
    if "oracle" in outs:
        run("oracle", checks.check_oracle, sub, kind == "span4")
    return result


def _call(fn, A):
    try:
        return fn(A)
    except Exception as exc:  # a failed call is a measured outcome
        return exc


def _signature(entry: str, out):
    return type(out).__name__ if isinstance(out, Exception) else ENTRIES[entry][2](out)


def checked_pass(cases, entry_names):
    """Call and check every entry on every case, untimed.

    Returns per case: subjects, {entry: (outcome, worst)}, signatures and the
    JSON-shaped outputs.
    """
    subjects, results, signatures, outputs = [], [], [], []
    for case in cases:
        sub = checks.Subject(case)
        outs, sigs = {}, {}
        for name in entry_names:
            fn, to_dict, _ = ENTRIES[name]
            out = _call(fn, sub.A)
            outs[name] = out if isinstance(out, Exception) else to_dict(out)
            sigs[name] = _signature(name, out)
        subjects.append(sub)
        results.append(check_matrix_case(sub, outs, case.kind))
        signatures.append(sigs)
        outputs.append(outs)
    return subjects, results, signatures, outputs


# -- measuring ------------------------------------------------------------------


def measure_setup(name: str, seed: int, invocations, smoke: bool) -> float:
    """Set-up of a fresh interpreter that imports albert and makes one call of
    each entry point the workload times, in reference seconds: the median of
    its spawn times, each over a reference spawn run just before it."""
    if name == "cli":
        argvs = [[cmd, "--inline", json.dumps(payload)] for cmd, payload, _ in invocations[:6]]
        code = ("import contextlib, io, json, sys\n"
                "from albert import cli\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        cli.main(argv)\n")
        arg = json.dumps(argvs)
    else:
        calls = {"charpoly": "albert.solve_characteristic(*albert.char_poly(A))",
                 "decompose": "albert.decompose(A)", "diagonalize": "albert.diagonalize(A)",
                 "classify": "albert.classify_psquare(A)",
                 "oracle": "albert.modified_char_check(A)"}
        code = ("import json, sys\n"
                "import albert\n"
                "A = albert.JordanMatrix.from_dict(json.loads(sys.argv[1]))\n"
                + "".join(calls[e] + "\n" for e in WORKLOAD_ENTRIES[name]))
        arg = json.dumps(sample_matrix(seed))
    ratios = [paired_spawn(["-c", code, arg], check=True)[1]
              for _ in range(2 if smoke else SETUP_REPEATS)]
    return float(np.median(ratios)) * REFERENCE_SPAWN_S


def digits(worst: float) -> float:
    return -math.log10(max(worst, 1e-17))


def run_inprocess(name: str, cases, seconds: float) -> dict:
    entry_names = WORKLOAD_ENTRIES[name]
    subjects, results, signatures, _ = checked_pass(cases, entry_names)
    fns = [ENTRIES[e][0] for e in entry_names]
    case_ok = [all(r[e][0] == "pass" for e in entry_names) for r in results]

    latencies = [[] for _ in cases]
    total, deterministic = 0.0, True
    per_entry = {e: [] for e in entry_names}
    while total < seconds:
        for i, (sub, res, sigs) in enumerate(zip(subjects, results, signatures)):
            cal = calibration_block()
            lat = 0.0
            for e, fn in zip(entry_names, fns):
                t0 = time.perf_counter()
                out = _call(fn, sub.A)
                dt = time.perf_counter() - t0
                lat += dt
                deterministic &= _signature(e, out) == sigs[e]
                if res[e][0] == "pass":
                    per_entry[e].append(dt)
            total += lat
            if case_ok[i]:
                latencies[i].append(lat / cal)

    outcomes = Counter(r[e][0] for r in results for e in entry_names)
    worst = max((r[e][1] for r in results for e in entry_names if r[e][0] == "pass"),
                default=math.inf)
    attempted = sum(outcomes.values())
    return {
        "correct": deterministic,
        "attempted": attempted,
        "failed": attempted - outcomes["pass"],
        "latencies": np.array([np.median(v) for v in latencies if v]) * CALIBRATION_MS,
        "min_digits": digits(worst),
        "detail": {
            "outcomes": dict(outcomes),
            "call_p50_us": {e: 1e6 * float(np.median(v)) for e, v in per_entry.items() if v},
        },
    }


# -- cli ---------------------------------------------------------------------------


def cli_invocations(cases, momenta):
    """(command, payload, subject-or-momentum) in round-robin command order."""
    out = []
    for case, momentum in zip(cases, momenta):
        out += [(cmd, inputs.to_dict(case.X), case) for cmd in CLI_COMMANDS[:-1]]
        out.append(("dirac", momentum, momentum))
    return out


def _spawn_outcome(proc) -> str | None:
    """Failure class from exit status and stderr, or None when the call ran clean."""
    if b"Traceback" in proc.stderr:
        return "uncaught:traceback"
    if proc.returncode != 0:
        return f"albert:exit{proc.returncode}"
    return None


def check_cli_output(cmd, stdout: bytes, target) -> tuple[str, float]:
    out = json.loads(stdout)
    if cmd == "dirac":
        return checks.check_dirac(out, target)
    sub = checks.Subject(target)
    if cmd == "oracle":
        return checks.check_oracle(out, sub, span4=False)
    fn = {"charpoly": checks.check_charpoly, "decompose": checks.check_decompose,
          "diagonalize": checks.check_diagonalize, "classify": checks.check_classify}[cmd]
    return fn(out, sub, sub.ref)


def run_cli(invocations, seed: int, seconds: float, smoke: bool) -> dict:
    first: dict[int, tuple[bytes, int, str, float]] = {}
    ratios = [[] for _ in invocations]
    total, deterministic, passes = 0.0, True, 0
    outcomes = Counter()
    while passes < 2 or total < seconds:
        for i, (cmd, payload, target) in enumerate(invocations):
            dt, ratio, proc = paired_spawn(
                ["-m", "albert.cli", cmd, "--inline", json.dumps(payload)])
            total += dt
            if i not in first:
                outcome, worst = _spawn_outcome(proc), math.nan
                if outcome is None:
                    outcome, worst = check_cli_output(cmd, proc.stdout, target)
                first[i] = (proc.stdout, proc.returncode, outcome, worst)
                outcomes[outcome] += 1
            stdout, returncode, outcome, _ = first[i]
            deterministic &= (proc.stdout, proc.returncode) == (stdout, returncode)
            if outcome == "pass":
                ratios[i].append(ratio)
        passes += 1

    verify_argv = ["verify", "--seed", str(seed), "--count", str(1 if smoke else VERIFY_COUNT)]
    verify_out = []
    for _ in range(2):
        dt, proc = timed_spawn(["-m", "albert.cli", *verify_argv])
        ok = _spawn_outcome(proc) is None and json.loads(proc.stdout)["pass"] is True
        outcomes["pass" if ok else "wrong"] += 1
        verify_out.append((proc.stdout, dt))
    deterministic &= verify_out[0][0] == verify_out[1][0]

    worst = max((w for _, _, o, w in first.values() if o == "pass"), default=math.inf)
    attempted = sum(outcomes.values())
    return {
        "correct": deterministic,
        "attempted": attempted,
        "failed": attempted - outcomes["pass"],
        "latencies": np.array([np.median(v) for v in ratios if v]) * 1e3 * REFERENCE_SPAWN_S,
        "min_digits": digits(worst),
        "detail": {"outcomes": dict(outcomes),
                   "verify_s": [round(dt, 4) for _, dt in verify_out]},
    }


def run(name: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """Untraced run: every end-to-end metric of one workload."""
    cases = make_cases(name, seed, smoke)
    if name == "cli":
        rng = rng_for("cli-momenta", seed)
        invocations = cli_invocations(cases, [inputs.null_momentum(rng) for _ in cases])
        setup = measure_setup(name, seed, invocations, smoke)
        res = run_cli(invocations, seed, seconds, smoke)
    else:
        setup = measure_setup(name, seed, None, smoke)
        res = run_inprocess(name, cases, seconds)
    lat = res["latencies"]
    passed = len(lat)
    res["metrics"] = {
        "setup_s": setup,
        "results_per_s": 1e3 * passed / float(np.sum(lat)) if passed else 0.0,
        "latency_p50": float(np.percentile(lat, 50)) if passed else math.inf,
        "latency_p90": float(np.percentile(lat, 90)) if passed else math.inf,
        "min_digits": res["min_digits"],
    }
    res["correct"] = res["correct"] and not (name in GATED and res["failed"])
    res["detail"]["results"] = passed
    return res

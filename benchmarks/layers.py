"""Per-layer metrics: direct timed calls into each module, plus cProfile runs.

Layers are the modules of ``src/albert``.  Each is measured on the workload's
own matrices where its functions take them, and otherwise on small seeded
companion sets (double roots, the gap sweep, null 2x2 momenta) that every
workload shares, so every workload reports every metric.

* Direct timings run with no profiler attached; a value is the median per call.
* Exact counts (objects built, calls made, branches taken) come from cProfile
  call counts, keyed by (file, first line, name) so that same-named methods of
  different classes stay apart.  They repeat exactly for a given seed.
* ``<module>.self_frac`` is the module's share of profiled time in one pass of
  the workload's calls: its own functions' time, plus the time of library or
  built-in code it calls, shared out along the recorded caller edges.
  ``dirac`` and ``sampling`` shares, and the per-suite seconds, come from a
  profiled ``run_verification``.
* ``trace.overhead_frac`` is profiled over unprofiled wall time, minus one,
  for the same pass.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import math
import pstats
import re
import time
from collections import Counter, defaultdict

import numpy as np

from albert import (
    Hermitian2,
    JordanMatrix,
    Octonion,
    build_m1_m2,
    char_poly,
    classify_psquare,
    cli,
    decompose,
    diagonalize,
    dirac_solve,
    double_root_split,
    embed,
    extract_vector,
    freudenthal_product,
    idempotent_from_q,
    jordan_product,
    modified_char_check,
    phase_align,
    q_matrix,
    run_verification,
    sandwich,
    solve_characteristic,
)
from albert import oracle as oracle_module
from albert import verify as verify_module

import checks
import inputs
import workloads

DIRECT_SHARE = 0.03  # share of --seconds given to each directly timed function
SELF_FRAC_MODULES = ("octonion", "jordan", "cubic", "spectral", "f4", "oracle")
FAIL_CLASSES = ("albert", "uncaught", "nonfinite", "wrong")


def _key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _ok_args(fn, args_list, limit: int | None = None):
    """The first ``limit`` (default all) argument tuples on which fn returns
    without raising."""
    good = []
    for args in args_list:
        if len(good) == limit:
            break
        try:
            fn(*args)
        except Exception:  # failures are counted by the checks, not timed here
            continue
        good.append(args)
    return good


def time_interleaved(fns, args_list, budget: float) -> list[list[float]]:
    """Per-call seconds of each function, in whole passes over args_list until
    budget is spent; the functions alternate on each argument tuple, so drift
    in host speed affects them alike."""
    times = [[] for _ in fns]
    end = time.perf_counter() + budget
    while args_list:
        for args in args_list:
            for fn, out in zip(fns, times):
                t0 = time.perf_counter()
                fn(*args)
                out.append(time.perf_counter() - t0)
        if time.perf_counter() >= end:
            break
    return times


def time_calls(fn, args_list, budget: float) -> list[float]:
    return time_interleaved([fn], args_list, budget)[0]


def _median(values, scale=1.0) -> float:
    return float(np.median(values)) * scale if len(values) else math.nan


def unprofiled(calls) -> float:
    """Wall seconds for a list of (fn, args), failed calls included."""
    t0 = time.perf_counter()
    for fn, args in calls:
        try:
            fn(*args)
        except Exception:  # a failure is an outcome; the checks count it
            pass
    return time.perf_counter() - t0


def profile(calls) -> tuple[dict, float]:
    """cProfile stats and wall seconds for the same calls as unprofiled()."""
    prof = cProfile.Profile()
    prof.enable()
    wall = unprofiled(calls)
    prof.disable()
    return pstats.Stats(prof).stats, wall


def _module(key) -> str | None:
    m = re.search(r"[/\\]albert[/\\](\w+)\.py$", key[0])
    return m.group(1) if m else None


def self_fracs(stats: dict) -> dict:
    """Share of profiled time per albert module, callee time shared by callers."""
    memo: dict = {}

    def shares(key) -> dict:
        if key in memo:
            return memo[key]
        mod = _module(key)
        if mod is not None:
            memo[key] = {mod: 1.0}
            return memo[key]
        memo[key] = {}  # breaks caller cycles
        callers = {k: v for k, v in stats[key][4].items() if k in stats}
        weight = {k: v[2] or v[1] for k, v in callers.items()}
        total = sum(weight.values())
        out: dict = defaultdict(float)
        for k, w in weight.items():
            for mod, share in shares(k).items():
                out[mod] += share * w / total
        memo[key] = dict(out)
        return memo[key]

    total = sum(v[2] for v in stats.values()) or 1.0
    acc: dict = defaultdict(float)
    for key, v in stats.items():
        for mod, share in shares(key).items():
            acc[mod] += v[2] * share
    return {mod: t / total for mod, t in acc.items()}


def calls_of(stats, fn) -> int:
    entry = stats.get(_key(fn))
    return entry[1] if entry else 0


# -- pieces ------------------------------------------------------------------------


def _gather_table():
    """Signed-permutation form of the reference product: e_i e_j = s e_k."""
    basis = np.eye(8)
    prod = inputs.omul(basis[:, None, :], basis[None, :, :])  # [i, j, k]
    idx = np.abs(prod).argmax(axis=2)
    sign = np.take_along_axis(prod, idx[:, :, None], axis=2)[:, :, 0]
    # For each output k and left index i, the right index j with idx[i, j] = k.
    right = np.argsort(idx, axis=1).T  # [k, i]
    return right, sign[np.arange(8)[None, :], right]


def gather_mul_ref_us(rng, budget: float) -> float:
    """Reference: batched signed-gather product on (N, 8) arrays, per product."""
    right, sign = _gather_table()
    x, y = rng.uniform(-1, 1, (2, 1000, 8))

    def mul(x, y):
        return np.einsum("ni,nki,ki->nk", x, y[:, right], sign)

    if not np.allclose(mul(x[:4], y[:4]), inputs.omul(x[:4], y[:4])):
        raise RuntimeError("signed-gather table disagrees with the reference product")
    return _median(time_calls(mul, [(x, y)], budget), 1e6 / len(x))


def cli_layers(seed: int, payload: dict, smoke: bool) -> dict:
    """Interpreter start, imports and one command, from separate spawns."""
    reps = 1 if smoke else 5

    def spawn(*argv):
        return workloads.timed_spawn(argv, check=True)

    def median_spawn(*argv) -> float:
        return _median([spawn(*argv)[0] for _ in range(reps)], 1e3)

    command, imports = [], []
    charpoly = ("-m", "albert.cli", "charpoly", "--inline", json.dumps(payload))
    for _ in range(reps):
        command.append(spawn(*charpoly)[0])
        imports.append(spawn("-c", "import albert.cli")[0])

    numpy_ms, albert_ms = [], []
    for _ in range(reps):
        _, proc = spawn("-X", "importtime", "-c", "import albert")
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        numpy_ms.append(cumulative["numpy"] / 1e3)
        albert_ms.append((cumulative["albert"] - cumulative["numpy"]) / 1e3)
    count = "1" if smoke else str(workloads.VERIFY_COUNT)
    return {
        "cli.python_ms": median_spawn("-c", "pass"),
        "cli.numpy_import_ms": _median(numpy_ms),
        "cli.albert_import_ms": _median(albert_ms),
        "cli.command_ms": _median(command, 1e3) - _median(imports, 1e3),
        "cli.verify_s": spawn("-m", "albert.cli", "verify", "--seed", str(seed),
                              "--count", count)[0],
    }


def verify_layers(seed: int, smoke: bool) -> dict:
    count = 1 if smoke else workloads.VERIFY_COUNT
    t0 = time.perf_counter()
    run_verification(count=count, seed=seed)
    total = time.perf_counter() - t0
    stats, _ = profile([(run_verification, (count, seed))])
    out = {"verify.total_s": total}
    for name, fn in verify_module._SUITES:
        out[f"verify.suite.{name}_s"] = stats[_key(fn)][3]
    shares = self_fracs(stats)
    out["dirac.self_frac"] = shares.get("dirac", 0.0)
    out["sampling.self_frac"] = shares.get("sampling", 0.0)
    return out


def workload_calls(name: str, cases, invocations) -> list:
    """One pass of the workload's own calls, in-process."""
    if name == "cli":
        def run_cli(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        return [(run_cli, ([cmd, "--inline", json.dumps(p)],)) for cmd, p, _ in invocations]
    fns = [workloads.ENTRIES[e][0] for e in workloads.WORKLOAD_ENTRIES[name]]
    As = [JordanMatrix.from_dict(inputs.to_dict(c.X)) for c in cases]
    return [(fn, (A,)) for A in As for fn in fns]


# -- the traced run ------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    rng = workloads.rng_for(name + "-layers", seed)
    cases = workloads.make_cases(name, seed, smoke)
    per_gap = 1 if smoke else 3
    gap_cases = [inputs.Case(*inputs.near_degenerate(rng, g), "near", g)
                 for g in inputs.GAPS for _ in range(per_gap)]
    doubles = [JordanMatrix.from_dict(inputs.to_dict(inputs.double_root(rng)[0]))
               for _ in range(2 if smoke else 8)]
    momenta = [Hermitian2.from_dict(inputs.null_momentum(rng)) for _ in range(2 if smoke else 8)]
    invocations = workloads.cli_invocations(cases, [inputs.null_momentum(rng) for _ in cases])
    budget = DIRECT_SHARE * seconds
    m: dict = {}

    # Checked pass: outcome classes of the workload's calls, accuracy data.
    own = workloads.WORKLOAD_ENTRIES.get(name, workloads.MATRIX_ENTRIES + ("oracle",))
    entries = tuple(dict.fromkeys(workloads.MATRIX_ENTRIES + own))
    subjects, results, _, outputs = workloads.checked_pass(cases, entries)
    classes = Counter(r[e][0].split(":")[0] for r in results for e in own)
    n_calls = sum(classes.values())
    m["checks.fail_frac"] = 1.0 - classes["pass"] / n_calls
    for c in FAIL_CLASSES:
        m[f"checks.{c}_frac"] = classes[c] / n_calls
    passed = [(s, o) for s, r, o in zip(subjects, results, outputs)
              if r["decompose"][0] == "pass"]
    m["spectral.idempotent_defect_max"] = max(
        (checks.idempotent_defect(o["decompose"]) for _, o in passed), default=math.nan)
    m["f4.offdiag_residual_max"] = max(
        (float(s.unit(o["diagonalize"]["residual"])) / s.n
         for s, r, o in zip(subjects, results, outputs) if r["diagonalize"][0] == "pass"),
        default=math.nan)
    branches = Counter(solve_characteristic(*poly).multiplicity for poly in _ok_args(
        solve_characteristic, [char_poly(s.A) for s in subjects]))
    for b in ("distinct", "double", "triple"):
        m[f"cubic.branch_{b}"] = branches[b]

    gap_subjects, gap_results, _, _ = workloads.checked_pass(gap_cases, ("decompose",))
    for g in inputs.GAPS:
        m[f"spectral.digits_gap_{g:.0e}".replace("e-0", "e-")] = min(
            workloads.digits(r["decompose"][1]) if r["decompose"][0] == "pass" else 0.0
            for c, r in zip(gap_cases, gap_results) if c.gap == g)

    # Direct timings, no profiler attached.
    As = [s.A for s in subjects]
    decs = [decompose(s.A) for s, _ in passed]
    m["octonion.mul_us"] = _median(time_calls(
        Octonion.__mul__, [(A.a, A.c) for A in As], budget), 1e6)
    m["octonion.gather_mul_ref_us"] = gather_mul_ref_us(rng, budget)
    pairs = _ok_args(jordan_product, [(A, A) for A in As])
    m["jordan.jordan_product_us"] = _median(time_calls(jordan_product, pairs, budget), 1e6)
    pairs = _ok_args(freudenthal_product, [(A, A) for A in As])
    m["jordan.freudenthal_product_us"] = _median(
        time_calls(freudenthal_product, pairs, budget), 1e6)
    m["jordan.det_us"] = _median(time_calls(JordanMatrix.det, _ok_args(
        JordanMatrix.det, [(A,) for A in As]), budget), 1e6)
    m["jordan.extract_vector_us"] = _median(time_calls(extract_vector, _ok_args(
        extract_vector, [(d.idempotents[0],) for d in decs]), budget), 1e6)
    solvable = [(A, poly) for A, poly in zip(As, map(char_poly, As))
                if _ok_args(solve_characteristic, [poly])]
    m["cubic.solve_us"] = _median(time_calls(
        solve_characteristic, [poly for _, poly in solvable], budget), 1e6)

    def q_route(A, lam):
        return idempotent_from_q(q_matrix(A, lam))

    simple = [(A, lam) for A, poly in solvable for lam in solve_characteristic(*poly).simple]
    m["spectral.q_route_us"] = _median(time_calls(q_route, _ok_args(q_route, simple), budget),
                                       1e6)
    splits = [(A, solve_characteristic(*char_poly(A)).repeated) for A in doubles]
    m["spectral.double_root_split_us"] = _median(
        time_calls(double_root_split, splits, budget), 1e6)
    dec_times = time_calls(decompose, _ok_args(decompose, [(A,) for A in As]), 4 * budget)
    m["spectral.decompose_p50_us"] = _median(dec_times, 1e6)
    m["spectral.decompose_p99_us"] = float(np.percentile(dec_times, 99)) * 1e6
    diag_times = time_calls(diagonalize, _ok_args(diagonalize, [(A,) for A in As]), 4 * budget)
    m["f4.diagonalize_p50_us"] = _median(diag_times, 1e6)
    m["f4.diagonalize_p99_us"] = float(np.percentile(diag_times, 99)) * 1e6
    vectors = [(phase_align(v),) for d in decs for v in d.eigenvectors[-1:]]
    m["f4.build_m1_m2_us"] = _median(time_calls(build_m1_m2, _ok_args(build_m1_m2, vectors),
                                                budget), 1e6)
    steps = [(res.steps[0], A) for (A,) in _ok_args(diagonalize, [(A,) for A in As])
             for res in [diagonalize(A)] if res.steps]
    m["f4.sandwich_us"] = _median(time_calls(sandwich, steps, budget), 1e6)

    ok = [A for (A,) in _ok_args(embed, [(A,) for A in As])]
    m["oracle.embed_us"] = _median(time_calls(embed, [(A,) for A in ok], budget), 1e6)
    few = _ok_args(modified_char_check, [(A,) for A in ok], 2 if smoke else 6)
    # The hand-written Jacobi solver; numpy's LAPACK one if the package drops it.
    eig = getattr(oracle_module, "jacobi_eigenvalues", np.linalg.eigvalsh)
    eig_times, check_times = time_interleaved(
        [lambda A: eig(embed(A)), modified_char_check], few, budget)
    m["oracle.eig_ms"] = _median(eig_times, 1e3)
    m["oracle.check_p50_ms"] = _median(check_times, 1e3)
    m["oracle.eig_frac"] = _median(np.array(eig_times) / np.array(check_times))
    m["oracle.eigvalsh_ref_us"] = _median(time_calls(
        np.linalg.eigvalsh, [(embed(A),) for (A,) in few], budget), 1e6)
    stack = np.stack([embed(s.A) for s, _ in passed])
    m["oracle.eigvalsh_batch_ref_us"] = _median(time_calls(
        np.linalg.eigvalsh, [(stack,)], budget), 1e6 / len(stack))
    m["oracle.clusters_mean"] = float(np.mean(
        [len(modified_char_check(A).clusters) for (A,) in few]))
    m["dirac.dirac_solve_us"] = _median(time_calls(dirac_solve, [(P,) for P in momenta],
                                                   budget), 1e6)
    m["dirac.classify_psquare_us"] = _median(time_calls(
        classify_psquare, _ok_args(classify_psquare, [(A,) for A in As]), budget), 1e6)

    # Exact counts, from profiles of single entry points.
    stats, _ = profile([(decompose, (A,)) for A in As])
    m["octonion.objects_per_call"] = calls_of(stats, Octonion.__init__) / len(As)
    m["jordan.jordan_product_calls"] = calls_of(stats, jordan_product) / len(As)
    m["jordan.to_array_calls"] = calls_of(stats, JordanMatrix.to_array) / len(As)
    stats, _ = profile([(diagonalize, (A,)) for A in As])
    m["octonion.objects_per_diagonalize"] = calls_of(stats, Octonion.__init__) / len(As)
    m["f4.sandwich_calls"] = calls_of(stats, sandwich) / len(As)
    stats, _ = profile([(double_root_split, args) for args in splits])
    edge = stats.get(_key(phase_align), (0, 0, 0, 0, {}))[4].get(_key(double_root_split))
    m["spectral.orient_tries_per_split"] = (edge[1] if edge else 0) / len(splits)

    # Self time per module and tracing overhead, on one pass of the workload.
    calls = workload_calls(name, cases, invocations)
    unprofiled(calls)
    plain = unprofiled(calls)
    stats, traced = profile(calls)
    shares = self_fracs(stats)
    for mod in SELF_FRAC_MODULES:
        m[f"{mod}.self_frac"] = shares.get(mod, 0.0)
    m["trace.overhead_frac"] = traced / plain - 1.0

    m.update(verify_layers(seed, smoke))
    m.update(cli_layers(seed, workloads.sample_matrix(seed), smoke))
    failed = n_calls - classes["pass"]
    return {"correct": not (name in workloads.GATED and failed), "attempted": n_calls,
            "failed": failed,
            "metrics": m, "detail": {"outcomes": dict(classes)}}

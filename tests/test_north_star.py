"""A seeded sweep of the north-star contract: every public entry point either
returns a result the benchmark's own checks pass, or raises an AlbertError.

Inputs are built by the benchmark (``benchmarks/inputs.py``) from a spectrum
fixed first, and judged by its scale-free checks (``benchmarks/checks.py``);
both are imported as they are, read-only.  The spectra cover every kind the
spectrum-edge workload probes and more: well spread, a zero root, an exact
double, near pairs at relative gaps 1e-2 to 1e-12, a small root, a triple
root and near triples (x, x(1 + g), x(1 + 2g)) at g = 1e-4 to 1e-9.  Every
second input, null momenta included, is scaled by 2^k with k drawn from
[-600, 600].  A wrong or non-finite result, or an exception that
is not an AlbertError, fails the sweep.

The command line's share runs ``cli.main`` on a few of those kinds, on null
momenta and on malformed payloads.  Every call must exit 0, 1 or 2, with
stderr starting ``inconsistency:`` on 1 and ``error:`` on 2, and raise
nothing; the JSON of ``decompose``, ``diagonalize`` and ``dirac`` must pass
the same checks.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from albert import Hermitian2, cli, decompose, diagonalize, dirac_solve

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import checks  # noqa: E402
import inputs  # noqa: E402

GAPS = tuple(10.0 ** -k for k in range(2, 13))
TRIPLE_GAPS = tuple(10.0 ** -k for k in range(4, 10))
ROUNDS = 10
MOMENTA_PER_ROUND = 4


def spectra(rng):
    """(kind, three eigenvalues) for one round of every kind."""
    x, y, _ = inputs._spread_spectrum(rng)
    top = max(abs(x), abs(y))
    yield "spread", tuple(inputs._spread_spectrum(rng))
    yield "zero", (x, y, 0.0)
    yield "double", (x, x, y)
    for gap in GAPS:
        yield f"near {gap:.0e}", (x, x + gap * top, y)
    yield "small", (x, y, top * 10.0 ** -rng.uniform(3.0, 12.0))
    yield "triple", (x, x, x)
    for gap in TRIPLE_GAPS:
        yield f"near triple {gap:.0e}", (x, x * (1.0 + gap), x * (1.0 + 2.0 * gap))


def outcome(call, check):
    try:
        out = call()
    except Exception as exc:  # an AlbertError is an allowed outcome, any other is not
        return checks.outcome_of_exception(exc)
    return check(out)[0]


def dirac_dict(out) -> dict:
    theta, sign = out
    return {"theta": [t.coeffs.tolist() for t in theta], "sign": sign}


@pytest.mark.parametrize("seed", [1, 2])
def test_every_outcome_is_checked_or_albert_error(seed):
    rng = np.random.default_rng([seed, 2600])
    cases = []
    for _ in range(ROUNDS):
        cases += spectra(rng)
        cases += [("null", inputs.null_momentum(rng)) for _ in range(MOMENTA_PER_ROUND)]
    outcomes = []
    for i, (kind, spec) in enumerate(cases):
        k = int(rng.integers(-600, 601)) if i % 2 else 0
        f = math.ldexp(1.0, k)
        if kind == "null":
            momentum = {"s": spec["s"] * f, "t": spec["t"] * f, "z": [z * f for z in spec["z"]]}
            outcomes.append(("dirac_solve", kind, k, outcome(
                lambda: dirac_solve(Hermitian2.from_dict(momentum)),
                lambda out: checks.check_dirac(dirac_dict(out), momentum))))
            continue
        X = inputs.from_spectrum(rng, np.array(spec)) * f
        sub = checks.Subject(inputs.Case(X, np.array(spec) * f, kind))
        for fn, check in ((decompose, checks.check_decompose),
                          (diagonalize, checks.check_diagonalize)):
            outcomes.append((fn.__name__, kind, k, outcome(
                lambda: fn(sub.A), lambda out: check(out.to_dict(), sub, sub.ref))))

    assert len(cases) == ROUNDS * (5 + len(GAPS) + len(TRIPLE_GAPS) + MOMENTA_PER_ROUND)
    bad = [o for o in outcomes if not (o[3] == "pass" or o[3].startswith("albert:"))]
    assert not bad


CLI_KINDS = ("spread", "zero", "double", "near 1e-04", "near 1e-09", "small", "triple",
             "near triple 1e-06")
CLI_CHECKS = {"decompose": checks.check_decompose, "diagonalize": checks.check_diagonalize}
ZERO8 = [0.0] * 8
MALFORMED = [
    ("decompose", "{"),
    ("charpoly", "[1, 2, 3]"),
    ("classify", json.dumps({"p": 1.0, "m": 2.0, "n": 3.0, "a": ZERO8, "b": ZERO8})),
    ("oracle", json.dumps({"p": 1.0, "m": 2.0, "n": 3.0, "a": [1.0], "b": ZERO8, "c": ZERO8})),
    ("diagonalize", json.dumps({"p": "one", "m": 2.0, "n": 3.0, "a": ZERO8, "b": ZERO8,
                                "c": ZERO8})),
    ("decompose", '{"p": NaN, "m": 0, "n": 0, "a": [0], "b": [0], "c": [0]}'),
    ("dirac", json.dumps({"s": 1.0, "t": 1.0})),
    ("dirac", json.dumps({"s": 1.0, "t": 2.0, "z": [1.0] + [0.0] * 7})),  # not null
    ("charpoly", json.dumps({"s": 1.0, "t": 1.0, "z": ZERO8})),
    # integers too large for a double
    ("charpoly", json.dumps({"p": 10**400, "m": 2.0, "n": 3.0, "a": ZERO8, "b": ZERO8,
                             "c": ZERO8})),
    ("dirac", json.dumps({"s": 1.0, "t": 1.0, "z": [10**400] + [0.0] * 7})),
    ("charpoly", "[" * 100_000),  # nested deeper than the parser recurses
    ("dirac", '{"s": 1.0, "t": 1.0, "z": ' + "[" * 100_000),
]


def cli_outcome(capsys, command, payload, check=None) -> str:
    """``pass``, ``exit1`` or ``exit2`` when ``cli.main`` keeps the contract,
    else a description of how it broke it."""
    try:
        code = cli.main([command, "--inline", payload])
    except Exception as exc:  # the console script would print a traceback
        return f"uncaught:{type(exc).__name__}"
    out, err = capsys.readouterr()
    if "Traceback" in err:
        return "traceback"
    if code == 0:
        if err or (check is not None and check(json.loads(out))[0] != "pass"):
            return "exit0:wrong"
        return "pass"
    prefix = {1: "inconsistency: ", 2: "error: "}.get(code)
    return f"exit{code}" if prefix and err.startswith(prefix) and out == "" else f"exit{code}:bad"


def test_cli_exits_checked_or_typed(capsys):
    rng = np.random.default_rng([1, 2601])
    outcomes = []
    kinds = [(kind, spec) for kind, spec in spectra(rng) if kind in CLI_KINDS]
    for i, (kind, spec) in enumerate(kinds + [("null", None)] * MOMENTA_PER_ROUND):
        f = math.ldexp(1.0, int(rng.integers(-600, 601)) if i % 2 else 0)
        if kind == "null":
            m = inputs.null_momentum(rng)
            momentum = {"s": m["s"] * f, "t": m["t"] * f, "z": [z * f for z in m["z"]]}
            outcomes.append(("dirac", kind, cli_outcome(
                capsys, "dirac", json.dumps(momentum),
                lambda out: checks.check_dirac(out, momentum))))
            continue
        X = inputs.from_spectrum(rng, np.array(spec)) * f
        sub = checks.Subject(inputs.Case(X, np.array(spec) * f, kind))
        payload = json.dumps(inputs.to_dict(X))
        for command in cli._MATRIX_COMMANDS:
            check = CLI_CHECKS.get(command)
            outcomes.append((command, kind, cli_outcome(
                capsys, command, payload,
                check and (lambda out, check=check: check(out, sub, sub.ref)))))
    for command, payload in MALFORMED:
        outcomes.append((command, payload, cli_outcome(capsys, command, payload)))

    assert len(outcomes) == 5 * len(CLI_KINDS) + MOMENTA_PER_ROUND + len(MALFORMED)
    bad = [o for o in outcomes if o[2] not in ("pass", "exit1", "exit2")]
    assert not bad
    assert all(o[2] == "exit2" for o in outcomes[-len(MALFORMED):])

"""A seeded sweep of the north-star contract: every public entry point either
returns a result the benchmark's own checks pass, or raises an AlbertError.

Inputs are built by the benchmark (``benchmarks/inputs.py``) from a spectrum
fixed first, and judged by its scale-free checks (``benchmarks/checks.py``);
both are imported as they are, read-only.  The spectra cover every kind the
spectrum-edge workload probes and more: well spread, a zero root, an exact
double, near pairs at relative gaps 1e-2 to 1e-12, a small root and a triple
root.  Every second input, null momenta included, is scaled by 2^k with k
drawn from [-600, 600].  A wrong or non-finite result, or an exception that
is not an AlbertError, fails the sweep.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from albert import Hermitian2, decompose, diagonalize, dirac_solve

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import checks  # noqa: E402
import inputs  # noqa: E402

GAPS = tuple(10.0 ** -k for k in range(2, 13))
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

    assert len(cases) == ROUNDS * (5 + len(GAPS) + MOMENTA_PER_ROUND)
    bad = [o for o in outcomes if not (o[3] == "pass" or o[3].startswith("albert:"))]
    assert not bad

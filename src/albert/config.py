"""Global numerical tolerances, and the one place that decides scale.

Every approximate comparison reads the one ``tolerances`` object below.
Library callers set its fields themselves; the CLI sets them for one command.
Two values compare close when ``|x - y| <= atol + rtol * max(|x|, |y|)``;
matrices and vectors use the same rule with norms.  The gates are meant at
unit scale: every entry point works on its input divided by 2^e
(:func:`_unit_scale`) and multiplies each output back by 2^(degree * e)
(:func:`_rescale`), so atol and rtol are relative to the largest |entry|.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InconsistentError


@dataclass
class Tolerances:
    """Package-wide tolerance settings.

    atol
        Floor near zero (at unit scale, so relative to the largest |entry|).
    rtol
        Relative tolerance for approximate equality.
    mtol
        Root-merging tolerance: characteristic roots closer than
        ``mtol * (1 + max |root|)`` are treated as repeated.

    A NaN, infinite or negative value is refused with ``ValueError`` on
    assignment: against it a gate passes or fails whatever the residual.
    """

    atol: float = 1e-12
    rtol: float = 1e-10
    mtol: float = 1e-7

    def __setattr__(self, name, value):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"tolerance {name} must be finite and >= 0, got {value!r}")
        super().__setattr__(name, value)


tolerances = Tolerances()

#: Gate on the residuals of assembled decompositions and factors, at unit scale.
RESIDUAL_RTOL = 1e-8


def _unit_scale(*pairs):
    """(value, degree) pairs divided by 2^(degree * e), exactly, and e: the
    least e with every |entry| below 2^(degree * e), for degree one the
    ``math.frexp`` exponent of the largest.  Zero values are ignored, so e
    is 0 for zero input; with e = 0 the values come back themselves."""
    e = None
    for x, d in pairs:
        top = np.maximum.reduce(abs(x), None) if type(x) is np.ndarray else abs(x)
        if top:
            k = -(-math.frexp(top)[1] // d)
            if e is None or k > e:
                e = k
    if not e:
        return [x for x, _ in pairs], 0
    return [(np.ldexp if type(x) is np.ndarray else math.ldexp)(x, -d * e)
            for x, d in pairs], e


def _rescale(e: int, *pairs):
    """(output, degree) pairs computed at unit scale, times 2^(degree * e),
    exactly, as arrays, floats or lists; the one place where an output that
    leaves the double range raises :class:`InconsistentError`."""
    if e == 0:
        return [x for x, _ in pairs]
    try:
        return [_ldexp_array(x, d * e) if type(x) is np.ndarray
                else [math.ldexp(v, d * e) for v in x] if isinstance(x, (tuple, list))
                else math.ldexp(x, d * e) for x, d in pairs]
    except (FloatingPointError, OverflowError) as exc:
        raise InconsistentError(f"a result overflows at scale 2^{e}") from exc


def _ldexp_array(x: np.ndarray, k: int) -> np.ndarray:
    with np.errstate(over="raise"):  # math.ldexp raises by itself, np.ldexp only warns
        return np.ldexp(x, k)

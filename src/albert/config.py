"""Global numerical tolerances, and the one place that decides scale.

All approximate comparisons in the package go through a single mutable
configuration, so one place governs what "equal" means.  Two values compare
close when ``|x - y| <= atol + rtol * max(|x|, |y|)``; matrix and vector
comparisons use the same rule with norms.  The gates are meant at unit scale:
every entry point works on its input divided by 2^e (:func:`_unit_scale`) and
multiplies each output back by 2^(degree * e) (:func:`_rescale`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InconsistentError


@dataclass
class Tolerances:
    """Package-wide tolerance settings.

    atol
        Absolute floor, used near zero.
    rtol
        Relative tolerance for approximate equality.
    mtol
        Root-merging tolerance: characteristic roots closer than
        ``mtol * (1 + max |root|)`` are treated as repeated.
    residual_rtol
        Gate for internal consistency checks on assembled decompositions
        (relative to the scale of the input).
    """

    atol: float = 1e-12
    rtol: float = 1e-10
    mtol: float = 1e-7
    residual_rtol: float = 1e-8


tolerances = Tolerances()


def _unit_scale(*pairs):
    """(value, degree) pairs divided by 2^(degree * e), exactly, and e: the
    least e with every |entry| below 2^(degree * e), for degree one the
    ``math.frexp`` exponent of the largest.  Zero values are ignored, so e
    is 0 for zero input; with e = 0 the values come back themselves."""
    exps = [-(-math.frexp(top)[1] // d) for x, d in pairs
            if (top := abs(x).max() if type(x) is np.ndarray else abs(x))]
    e = max(exps) if exps else 0
    if e == 0:
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
        with np.errstate(over="raise"):
            return [np.ldexp(x, d * e) if type(x) is np.ndarray
                    else [math.ldexp(v, d * e) for v in x] if isinstance(x, (tuple, list))
                    else math.ldexp(x, d * e) for x, d in pairs]
    except (FloatingPointError, OverflowError) as exc:
        raise InconsistentError(f"a result overflows at scale 2^{e}") from exc

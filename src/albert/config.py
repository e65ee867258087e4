"""The numerical tolerance constants, and the one place that decides scale.

Every tolerance is one of the module constants below, fixed for the
package, and every gate bound ``ATOL + RTOL * scale`` is formed by
:func:`_bound`, on a scale each gate picks (``max(|x|, |y|)`` for two
values, with norms).  The gates are meant at unit scale: every entry point
works on its input divided by 2^e (:func:`_unit_scale`) and multiplies each
output back by 2^(degree * e) (:func:`_rescale`), so ATOL and RTOL are
relative to the largest |entry|.
"""

import math

import numpy as np

from .exceptions import InconsistentError


#: Floor near zero, at unit scale, so relative to the largest |entry|.
ATOL = 1e-12
#: Relative tolerance for approximate equality.
RTOL = 1e-10
#: Root-merging tolerance: characteristic roots closer than
#: ``MTOL * (1 + max |root|)`` are treated as repeated.
MTOL = 1e-7
#: Gate on the residuals of assembled decompositions and factors, at unit scale.
RESIDUAL_RTOL = 1e-8


def _bound(scale: float, r: float = RTOL) -> float:
    """``ATOL + r * scale``, with r = ``RTOL`` unless the gate passes its own."""
    return ATOL + r * scale


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

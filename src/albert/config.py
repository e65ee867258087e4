"""Global numerical tolerances, and the one place that decides scale.

Every tolerance is a field of the one ``tolerances`` object below, which
library callers set themselves and the CLI for one command, and every gate
bound ``atol + rtol * scale`` is formed by :func:`_bound`, on a scale each
gate picks (``max(|x|, |y|)`` for two values, with norms).  The gates are
meant at unit scale: every entry point works on its input divided by 2^e
(:func:`_unit_scale`) and multiplies each output back by 2^(degree * e)
(:func:`_rescale`), so atol and rtol are relative to the largest |entry|.
"""

import math

import numpy as np

from .exceptions import InconsistentError


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
    Any other name, such as a misspelt field, raises ``AttributeError``.
    """

    def __init__(self):
        self.atol, self.rtol, self.mtol = 1e-12, 1e-10, 1e-7

    def __setattr__(self, name, value):
        if name not in ("atol", "rtol", "mtol"):
            raise AttributeError(f"Tolerances has no field {name!r}")
        if not 0.0 <= value < math.inf:
            raise ValueError(f"tolerance {name} must be finite and >= 0, got {value!r}")
        super().__setattr__(name, value)

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is Tolerances else NotImplemented

    def __repr__(self) -> str:
        return f"Tolerances(atol={self.atol!r}, rtol={self.rtol!r}, mtol={self.mtol!r})"


tolerances = Tolerances()

#: Gate on the residuals of assembled decompositions and factors, at unit scale.
RESIDUAL_RTOL = 1e-8


def _bound(scale: float, r: float | None = None) -> float:
    """``atol + r * scale``, with r = ``rtol`` unless the gate passes its own."""
    return tolerances.atol + (tolerances.rtol if r is None else r) * scale


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

"""Approximate equality with a bound of the test's own: the package's
``isclose`` reads only the fixed tolerances of ``albert.config``."""

from albert.config import RTOL


def close(x, y, atol: float, rtol: float = RTOL) -> bool:
    """|x - y| <= atol + rtol * max(|x|, |y|) for two values of one type,
    the rule of ``isclose``; rtol is the package's ``RTOL`` unless given."""
    return (x - y).norm() <= atol + rtol * max(x.norm(), y.norm())

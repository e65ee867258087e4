"""Approximate equality with a bound of the test's own: the package's
``isclose`` reads only the configured tolerances."""

from albert.config import tolerances


def close(x, y, atol: float, rtol: float | None = None) -> bool:
    """|x - y| <= atol + rtol * max(|x|, |y|) for two values of one type,
    the rule of ``isclose``; rtol is the configured one unless given."""
    rtol = tolerances.rtol if rtol is None else rtol
    return (x - y).norm() <= atol + rtol * max(x.norm(), y.norm())

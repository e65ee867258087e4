"""Global numerical tolerances.

All approximate comparisons in the package go through a single mutable
configuration, so one place governs what "equal" means.  Two values compare
close when ``|x - y| <= atol + rtol * max(|x|, |y|)``; matrix and vector
comparisons use the same rule with norms.
"""

from dataclasses import dataclass


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


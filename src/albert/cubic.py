"""Real-root cubic solver for characteristic polynomials.

Solves t^3 - (tr) t^2 + (sigma) t - (det) = 0 by depressing the cubic and
applying the trigonometric (Viete) formula, which is numerically stable when
all three roots are real -- the only case that can arise for a Hermitian
matrix.  A significantly negative discriminant raises
:class:`~albert.exceptions.ComplexRootsError`; tiny excursions from
round-off are clamped.  Coefficients that are not finite raise
:class:`~albert.exceptions.InconsistentError`.

The coefficients (degrees 1, 2, 3) are brought to unit scale by 2^e, 2^2e,
2^3e and the roots multiplied back by 2^e; there, roots closer than
``MTOL * (1 + max |root|)`` are merged and reported at their mean, with the
multiplicity recorded on the result.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import ATOL, MTOL, _rescale, _unit_scale
from .exceptions import ComplexRootsError, InconsistentError

__all__ = ["CubicRoots", "solve_characteristic"]

#: Relative gate on the (degree-six) discriminant before declaring complex roots.
DISCRIMINANT_RTOL = 1e-9


class CubicRoots(NamedTuple):
    """Roots of a characteristic cubic, sorted in descending order.

    ``multiplicity`` is one of ``"distinct"``, ``"double"``, ``"triple"``;
    ``repeated`` carries the merged value when roots coincide.
    """

    roots: tuple[float, float, float]
    multiplicity: str
    repeated: float | None = None

    @property
    def simple(self) -> tuple[float, ...]:
        """The roots of multiplicity one."""
        if self.multiplicity == "distinct":
            return self.roots
        if self.multiplicity == "double":
            return tuple(r for r in self.roots if r != self.repeated)[:1]
        return ()

    def to_dict(self) -> dict:
        out = {"roots": [float(r) for r in self.roots], "multiplicity": self.multiplicity}
        if self.repeated is not None:
            out["repeated"] = float(self.repeated)
        return out


def _merge(roots: list[float]) -> CubicRoots:
    roots = sorted(roots, reverse=True)
    thr = MTOL * (1.0 + max(abs(r) for r in roots))
    g01 = roots[0] - roots[1]
    g12 = roots[1] - roots[2]
    if g01 <= thr and g12 <= thr:
        v = sum(roots) / 3.0
        return CubicRoots((v, v, v), "triple", v)
    if g01 <= thr:
        v = (roots[0] + roots[1]) / 2.0
        return CubicRoots((v, v, roots[2]), "double", v)
    if g12 <= thr:
        v = (roots[1] + roots[2]) / 2.0
        return CubicRoots((roots[0], v, v), "double", v)
    return CubicRoots(tuple(roots), "distinct", None)


def solve_characteristic(tr: float, sigma: float, det: float) -> CubicRoots:
    """All real roots of t^3 - tr t^2 + sigma t - det, with multiplicities."""
    if not all(map(math.isfinite, (tr, sigma, det))):
        raise InconsistentError(f"cubic ({tr}, {sigma}, {det}) is not finite")
    coeffs, e = _unit_scale((tr, 1), (sigma, 2), (det, 3))
    r = _solve(*coeffs)
    roots = tuple(_rescale(e, (r.roots, 1))[0])
    # a repeated root is always the middle one
    return CubicRoots(roots, r.multiplicity, None if r.repeated is None else roots[1])


def _solve(tr: float, sigma: float, det: float) -> CubicRoots:
    """:func:`solve_characteristic` on coefficients taken as they are."""
    # Depress: t = u + tr/3 gives u^3 + p u + q.
    p = sigma - tr * tr / 3.0
    q = -2.0 * tr**3 / 27.0 + tr * sigma / 3.0 - det
    disc = -4.0 * p**3 - 27.0 * q * q
    terms = 4.0 * abs(p) ** 3 + 27.0 * q * q
    # With the discriminant this close to non-negative, p > 0 forces both
    # p and q to be tiny: the depressed cubic is u^3 = 0 to tolerance.
    p_floor = 1e-13 * (1.0 + abs(tr) ** 2 + abs(sigma) + abs(det) ** (2.0 / 3.0))
    if disc < -max(ATOL, DISCRIMINANT_RTOL * terms):
        raise ComplexRootsError(
            f"discriminant / (4 |p|^3 + 27 q^2) = {disc / terms:.3e} is negative "
            "beyond tolerance; the polynomial has complex roots"
        )

    if p > -p_floor:
        u = (0.0, 0.0, 0.0)
    else:
        mag = 2.0 * math.sqrt(-p / 3.0)
        x = 3.0 * q / (p * mag)
        x = min(1.0, max(-1.0, x))  # round-off only; real excursions were gated above
        phi = math.acos(x) / 3.0
        u = tuple(mag * math.cos(phi - 2.0 * math.pi * k / 3.0) for k in range(3))

    return _merge([ui + tr / 3.0 for ui in u])

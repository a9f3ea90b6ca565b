"""Rational points of the torus T^n = R^n / Z^n, with reduced coordinates
in [0,1)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# The most points built or listed: the default oracle grid denominator, the
# longest intersection `intersect` prints, the largest grid `gen` emits, the
# most point pairs the collineation search tabulates and the most congruence
# solutions built.  Larger inputs are refused with exit 2.
MAX_POINTS = 1_000_000


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _reduced(x) -> Fraction:
    """x mod 1 as a Fraction; a coordinate already in [0, 1) is kept, which
    the integer test of its numerator finds without Fraction arithmetic."""
    x = _frac(x)
    return x if 0 <= x.numerator < x.denominator else x % 1


@dataclass(frozen=True, slots=True)
class RatPoint:
    """A point of T^n; coordinates are reduced into [0,1) on construction."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coords", tuple(_reduced(c) for c in self.coords)
        )

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _canonical(coords: tuple[Fraction, ...]) -> RatPoint:
    """A RatPoint on coordinates already in [0, 1), kept as they are."""
    p = object.__new__(RatPoint)
    object.__setattr__(p, "coords", coords)
    return p


def point(*coords) -> RatPoint:
    """Convenience constructor: point(1, 2) etc. accepts ints, Fractions or
    'p/q' strings."""
    return RatPoint(tuple(Fraction(c) for c in coords))


def origin(n: int) -> RatPoint:
    return RatPoint((Fraction(0),) * n)

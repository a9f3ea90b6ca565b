"""Rational points of the torus T^n = R^n / Z^n, with reduced coordinates
in [0,1)."""

from __future__ import annotations

from fractions import Fraction

from .common import Frozen


def parse_rational(token: str) -> Fraction:
    """Fraction(token), refusing a decimal exponent: Fraction expands 1eN to 10**N."""
    if "e" in token or "E" in token:
        raise ValueError(f"exponent in rational {token!r}")
    return Fraction(token)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _reduced(x) -> Fraction:
    """x mod 1 as a Fraction; a coordinate already in [0, 1) is kept, which
    the integer test of its numerator finds without Fraction arithmetic."""
    x = _frac(x)
    return x if 0 <= x.numerator < x.denominator else x % 1


class RatPoint(Frozen):
    """A point of T^n; coordinates are reduced into [0,1) on construction."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]):
        object.__setattr__(self, "coords", tuple(_reduced(c) for c in coords))

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

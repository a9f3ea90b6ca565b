"""Rational points of the torus T^n = R^n / Z^n, with reduced coordinates
in [0,1)."""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

# The most points built or listed: the default oracle grid denominator, the
# longest intersection `intersect` prints, the largest grid `gen` emits, the
# most point pairs the collineation search tabulates and the most congruence
# solutions built.  Larger inputs are refused with exit 2.
MAX_POINTS = 1_000_000


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


class Frozen:
    """An immutable value whose fields are the names in ``__slots__``, a
    subclass's after its bases'.  Instances of one class are equal when the
    fields not named in ``_uncompared`` are, and hash as the tuple of those
    fields; the repr is ``Name(field=value, ...)``.  Fields are set once, in
    ``__init__`` (``Frozen.__init__`` takes them by position or name, and a
    subclass's own sets them with ``object.__setattr__``), and pickled as a
    tuple."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += cls.__dict__.get("__slots__", ())
        compared = [f for f in cls._fields if f not in cls._uncompared]
        get = attrgetter(*compared)  # a tuple for two or more names
        cls._key = staticmethod(get if len(compared) > 1 else lambda v: (get(v),))

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            values += tuple(named.pop(f) for f in fields[len(values) :] if f in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setstate__(self, state: tuple):
        Frozen.__init__(self, *state)


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

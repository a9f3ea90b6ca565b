"""The m-grid of the n-torus: point indices, discrete lines, grid maps and
the tables of affine maps.

Points are the m^n residue tuples, indexed in lexicographic order.  Lines
are the cosets of the order-m cyclic subgroups whose generators lift to
primitive integer directions -- exactly the grid shadows of rational torus
lines.  The module imports no ``fractions``: `is_affine_perm` builds a
map's rational model only once its integer table has matched.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import product as iproduct
from math import gcd, prod
from typing import TYPE_CHECKING

from .common import Frozen

if TYPE_CHECKING:  # imported in is_affine_perm, once its table has matched
    from .affine import AffineTorusAuto


def _check_grid(n: int, m: int) -> None:
    """The size rule of every grid: n >= 2 and m >= 3, n checked first."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if m < 3:
        raise ValueError("modulus too small")


def point_index(p: tuple[int, ...], m: int) -> int:
    idx = 0
    for c in p:
        idx = idx * m + c % m
    return idx


def index_point(idx: int, n: int, m: int) -> tuple[int, ...]:
    coords = []
    for _ in range(n):
        idx, c = divmod(idx, m)
        coords.append(c)
    return tuple(reversed(coords))


@lru_cache(maxsize=None)
def _units(m: int) -> tuple[int, ...]:
    return tuple(u for u in range(1, m) if gcd(u, m) == 1)


def canonical_generator(gen: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Lexicographically least generator of the cyclic subgroup <gen>."""
    return min(tuple(u * x % m for x in gen) for u in _units(m))


def primitive_lift(gen: tuple[int, ...], m: int) -> tuple[int, ...]:
    """A primitive integer vector congruent to gen mod m.

    Exists whenever gcd(gen, m) = 1 and, in dimension 1, gen = +-1 mod m.
    gen[1] shifts by t*m, t the product of the primes of a = gen[0] (or m
    for 0) that miss some later entry; the other primes of a divide every
    later entry, so they are prime to m and to t and miss gen[1] + t*m.
    """
    if gcd(*gen, m) != 1:
        raise ValueError("generator shares a factor with the modulus")
    if len(gen) == 1:
        if (gen[0] - 1) % m and (gen[0] + 1) % m:
            raise ValueError("a one-dimensional lift must be +-1 mod m")
        return (1,) if (gen[0] - 1) % m == 0 else (-1,)
    a = gen[0] or m
    t = prod(p for p, _ in _factorize(abs(a)) if any(x % p for x in gen[1:]))
    return (a, gen[1] + t * m, *gen[2:])


def _factorize(m: int):
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            yield p, k
        p += 1
    if m > 1:
        yield m, 1


def line_points(
    base: tuple[int, ...], gen: tuple[int, ...], m: int
) -> list[tuple[int, ...]]:
    """The points base + k·gen of a line, for k = 0 … m−1."""
    return [tuple((b + k * g) % m for b, g in zip(base, gen)) for k in range(m)]


def line_indices(base: tuple[int, ...], gen: tuple[int, ...], m: int) -> list[int]:
    """The flat indices of base + k·gen, k = 0 … m−1, built one axis at a
    time as `_table` builds its table."""
    idx = [0] * m
    for b, g in zip(base, gen):
        idx = [i * m + (b + k * g) % m for k, i in enumerate(idx)]
    return idx


class DiscreteLine(Frozen):
    """A coset of an order-m cyclic subgroup with primitive-liftable
    generator, stored canonically: lex-least generator, lex-least base."""

    __slots__ = ("n", "m", "generator", "base")

    def __init__(
        self, n: int, m: int, generator: tuple[int, ...], base: tuple[int, ...]
    ):
        if len(generator) != n or len(base) != n:
            raise ValueError("dimension mismatch")
        if gcd(*generator, m) != 1:
            raise ValueError("generator shares a factor with the modulus")
        gen = canonical_generator(generator, m)
        super().__init__(n, m, gen, min(line_points(base, gen, m)))

    @property
    def points(self) -> tuple[tuple[int, ...], ...]:
        """The line's points in lexicographic order."""
        return tuple(sorted(line_points(self.base, self.generator, self.m)))


def lines_through(
    a: tuple[int, ...], b: tuple[int, ...], m: int
) -> list[DiscreteLine]:
    """Every discrete line through the distinct grid points a and b, sorted
    by generator.

    With d = b - a and e = gcd(d, m), the line a + <g> contains b exactly
    when e*g = d for a suitable generator g, so the candidates are
    g = d/e + (m/e)*t for t in (Z/e)^n, kept when gcd(g, m) = 1.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("dimension mismatch")
    d = tuple((y - x) % m for x, y in zip(a, b))
    e = gcd(*d, m)
    if e == m:
        raise ValueError("the two points coincide")
    step = m // e
    gens = set()
    for t in iproduct(range(e), repeat=n):
        g = tuple(x // e + step * s for x, s in zip(d, t))
        if gcd(*g, m) == 1:
            gens.add(canonical_generator(g, m))
    return [DiscreteLine(n, m, g, a) for g in sorted(gens)]


def _generators(n: int, m: int) -> list[tuple[int, ...]]:
    """The sorted canonical generators of the order-m cyclic subgroups: a
    lexicographic walk meets each orbit under the units first at its least
    member, so marking the orbit there keeps exactly those."""
    gens = []
    seen = set()
    for g in iproduct(range(m), repeat=n):
        if gcd(*g, m) == 1 and g not in seen:
            gens.append(g)
            seen.update(tuple(u * x % m for x in g) for u in _units(m))
    return gens


def _base_box(g: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The corner c of the bases of the lines along g: p is the
    lexicographically least point of p + <g> exactly when p < c in every
    coordinate.  With the earlier coordinates held fixed, k runs over the
    multiples of step, so coordinate x can drop to x mod gcd(step*y, m)
    and no further."""
    box = []
    step = 1
    for y in g:
        c = gcd(step * y, m)
        box.append(c)
        step *= m // c
    return tuple(box)


def enumerate_discrete_lines(
    n: int, m: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All discrete lines of the m-grid on the n-torus, each once, lazily,
    as the canonical (base, generator) pairs of DiscreteLine, in order.
    Generators share few base boxes, so each point tests the boxes and
    takes the sorted generators of those that hold it."""
    _check_grid(n, m)
    boxes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for g in _generators(n, m):
        boxes.setdefault(_base_box(g, m), []).append(g)
    merged: dict[tuple, list[tuple[int, ...]]] = {}  # boxes holding p -> gens

    def gens_at(p):
        key = tuple(box for box in boxes if all(map(int.__lt__, p, box)))
        if key not in merged:
            merged[key] = sorted(g for box in key for g in boxes[box])
        return merged[key]

    return ((p, g) for p in iproduct(range(m), repeat=n) for g in gens_at(p))


def affine_table(phi: AffineTorusAuto, n: int, m: int) -> tuple[int, ...]:
    """The image index of every m-grid point under phi, in lexicographic
    point order.  phi may be integral or modulo m.  Raises ValueError when
    phi moves 0 off the grid (m·b not integral).
    """
    if phi.dim != n:
        raise ValueError("dimension mismatch")
    shifts = [b * m for b in phi.translation.coords]
    if any(s.denominator != 1 for s in shifts):
        raise ValueError("map does not preserve this grid")
    return _table(phi.matrix, [int(s) for s in shifts], n, m)


def _table(matrix, shift, n: int, m: int) -> tuple[int, ...]:
    """The image index of every m-grid point under x -> matrix·x + shift,
    on integers mod m.

    Image coordinate k is built for the whole grid at once, one source axis
    at a time, as its share r·m^(n-1-k) of the flat index; the n shares are
    then summed point by point.
    """
    shares = []
    for k, (row, s) in enumerate(zip(matrix, shift)):
        # One object per residue, shared by every point, keeps memory flat.
        share = [r * m ** (n - 1 - k) for r in range(m)]
        vals = [s % m]
        for a in row[:-1]:
            steps = [a * t for t in range(m)]
            vals = [(v + d) % m for v in vals for d in steps]
        steps = [row[-1] * t for t in range(m)]
        shares.append([share[(v + d) % m] for v in vals for d in steps])
    return tuple(map(sum, zip(*shares)))


def is_affine_perm(n: int, m: int, images) -> AffineTorusAuto | None:
    """The unique affine form of a grid permutation, or None.

    b is read off the image of 0 and the matrix columns from the images of
    the unit vectors; the candidate's table is then checked at every grid
    point, and only a match is built into a model.
    """
    size = m**n
    if len(images) != size:
        raise ValueError("image table has the wrong length")
    shift = index_point(images[0], n, m)
    cols = []
    for axis in range(n):
        e = tuple(1 if i == axis else 0 for i in range(n))
        img = index_point(images[point_index(e, m)], n, m)
        cols.append(tuple((a - b) % m for a, b in zip(img, shift)))
    matrix = tuple(tuple(col[r] for col in cols) for r in range(n))
    if _table(matrix, shift, n, m) != tuple(images):
        return None
    from fractions import Fraction

    from .affine import AffineTorusAuto
    from .ratpoint import RatPoint

    translation = RatPoint(tuple(Fraction(c, m) for c in shift))
    try:
        return AffineTorusAuto(matrix, translation, m)
    except ValueError:
        return None


class GridMap(Frozen):
    """A bijection of the m-grid on the n-torus, stored as image indices in
    lexicographic point order."""

    __slots__ = ("n", "m", "images")

    def __init__(self, n: int, m: int, images: tuple[int, ...]):
        _check_grid(n, m)
        size = m**n
        if len(images) != size:
            raise ValueError("image table has the wrong length")
        if len(set(images)) != size or min(images) < 0 or max(images) >= size:
            raise ValueError("mapping is not a permutation")
        super().__init__(n, m, images)

    @property
    def size(self) -> int:
        return self.m**self.n

    def image_of(self, p: tuple[int, ...]) -> tuple[int, ...]:
        if len(p) != self.n:
            raise ValueError("dimension mismatch")
        return index_point(self.images[point_index(p, self.m)], self.n, self.m)

    @classmethod
    def from_affine(cls, phi: AffineTorusAuto, n: int, m: int) -> GridMap:
        """The grid map of phi; an integral phi must move 0 to a grid point
        (m·b integral), which it then does for every grid point."""
        if phi.modulus not in (None, m):
            raise ValueError("modulus mismatch")
        return cls(n, m, affine_table(phi, n, m))

"""Seeded geometry queries on T^2 and T^3 and their independent oracles.

One query is one short sequence of library calls.  Half of the directions
and plane normals come from a small pool drawn once per seed, so their
frames are found in the library's caches; the other half are fresh, with
entries up to FRESH, and miss.  The oracles recompute every answer from
determinants, normal vectors and literal parameter enumeration with the
benchmark's own arithmetic.

A rank-2 subtorus of T^3 is given by an anchor point and a primitive normal
nu: it is {x : nu . (x - anchor) in Z}.  The library receives it as the
span of integer vectors orthogonal to nu, which it saturates itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from torusaffine import affine, geometry, subtorus

KINDS = ("pair2", "line_sub3", "sub_sub3", "contains3", "image3")
POOL = 8
SMALL = 3
FRESH = 50
# Caps |det| and |nu . v|, the number of points a query enumerates.
MAX_POINTS = 64


def _primitive(rng: random.Random, dim: int, bound: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(v) and gcd(*v) == 1:
            return v


def _point(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    out = []
    for _ in range(dim):
        q = rng.randint(1, 6)
        out.append(Fraction(rng.randrange(q), q))
    return tuple(out)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _kernel(nu) -> list[tuple[int, ...]]:
    """Integer vectors spanning the plane orthogonal to nu."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [c for c in (_cross(nu, e) for e in units) if any(c)]


def _integral(x) -> bool:
    return Fraction(x).denominator == 1


def _unimodular(rng: random.Random):
    """A random matrix of determinant 1 and its inverse, built from
    elementary column operations."""
    a = [[int(i == j) for j in range(3)] for i in range(3)]
    inv = [row[:] for row in a]
    for _ in range(5):
        i, j = rng.sample(range(3), 2)
        q = rng.choice((-2, -1, 1, 2))
        for row in a:
            row[j] += q * row[i]
        inv[i] = [x - q * y for x, y in zip(inv[i], inv[j])]
    return tuple(map(tuple, a)), tuple(map(tuple, inv))


class QueryStream:
    """Endless seeded stream of queries, drawn one batch at a time."""

    def __init__(self, seed: int):
        self.rng = rng = random.Random(seed)
        self.dirs2 = [_primitive(rng, 2, SMALL) for _ in range(POOL)]
        self.dirs3 = [_primitive(rng, 3, SMALL) for _ in range(POOL)]
        self.normals = [_primitive(rng, 3, SMALL) for _ in range(POOL)]

    def _pick(self, pool, dim):
        if self.rng.random() < 0.5:
            return self.rng.choice(pool)
        return _primitive(self.rng, dim, FRESH)

    def _plane(self):
        nu = self._pick(self.normals, 3)
        return _point(self.rng, 3), nu, _kernel(nu)

    def batch(self, size: int) -> list[tuple[str, tuple]]:
        """size queries, the same number of each kind, in seeded order."""
        out = [self.query(KINDS[i % len(KINDS)]) for i in range(size)]
        self.rng.shuffle(out)
        return out

    def query(self, kind: str) -> tuple[str, tuple]:
        rng = self.rng
        if kind == "pair2":
            while True:
                v1, v2 = self._pick(self.dirs2, 2), rng.choice(self.dirs2)
                if abs(v1[0] * v2[1] - v1[1] * v2[0]) <= MAX_POINTS:
                    return kind, (_point(rng, 2), v1, _point(rng, 2), v2)
        if kind == "line_sub3":
            while True:
                v, plane = self._pick(self.dirs3, 3), self._plane()
                if abs(_dot(plane[1], v)) <= MAX_POINTS:
                    return kind, (_point(rng, 3), v) + plane
        if kind == "sub_sub3":
            while True:
                p1, p2 = self._plane(), self._plane()
                if gcd(*_cross(p1[1], p2[1])) <= MAX_POINTS:
                    return kind, p1 + p2
        if kind == "contains3":
            anchor, nu, kern = plane = self._plane()
            p = _point(rng, 3)
            if rng.random() < 0.5:
                # a point of the subtorus: anchor plus a rational tangent vector
                r1, r2 = p[0], p[1]
                p = tuple(a + r1 * x + r2 * y for a, x, y in zip(anchor, kern[0], kern[1]))
            return kind, plane + (p,)
        if kind == "image3":
            return kind, self._plane() + _unimodular(rng) + (_point(rng, 3),)
        raise ValueError(f"unknown query kind {kind!r}")


def _span(anchor, kern):
    return subtorus.subtorus_span(geometry.RatPoint(anchor), kern)


def run(kind: str, args: tuple):
    """Execute one query through the library; the result is what check()
    needs."""
    if kind == "pair2":
        b1, v1, b2, v2 = args
        l1 = geometry.line_through(b1, v1)
        l2 = geometry.line_through(b2, v2)
        count = geometry.intersection_count_2d(l1, l2)
        points = () if count.is_infinite else geometry.intersection_points(l1, l2)
        return count.count, points
    if kind == "line_sub3":
        b, v, anchor, _, kern = args
        line = geometry.line_through(b, v)
        s = _span(anchor, kern)
        count = subtorus.line_subtorus_count(line, s)
        return count.count, subtorus.intersect_subtori(subtorus.line_as_subtorus(line), s)
    if kind == "sub_sub3":
        a1, _, k1, a2, _, k2 = args
        return subtorus.intersect_subtori(_span(a1, k1), _span(a2, k2))
    if kind == "contains3":
        anchor, _, kern, p = args
        return subtorus.contains_point(_span(anchor, kern), geometry.RatPoint(p))
    if kind == "image3":
        anchor, _, kern, a, _, t = args
        phi = affine.AffineTorusAuto(a, geometry.RatPoint(t))
        return subtorus.image_subtorus(_span(anchor, kern), phi)
    raise ValueError(f"unknown query kind {kind!r}")


# ---------------------------------------------------------------- oracles


def _on_plane(nu, anchor, p) -> bool:
    return _integral(_dot(nu, _sub(p, anchor)))


def _check_pair2(args, result) -> bool:
    """Points of l1 are b1 + t v1; they lie on l2 exactly when
    nu2 . (b1 - b2) + t det = 0 mod 1, nu2 the normal of v2, so the
    intersection is t = (j - c) / det for j = 0 .. |det| - 1."""
    (b1, v1, b2, v2), (count, points) = args, result
    nu = (-v2[1], v2[0])
    d = _dot(nu, v1)
    c = _dot(nu, _sub(b1, b2))
    if d == 0:
        return points == () and count == (None if _integral(c) else 0)
    scale = lcm(*(x.denominator for x in b1 + b2))
    big = scale * abs(d)
    sign = 1 if d > 0 else -1
    start = [int(x * big) for x in b1]
    cs = int(c * scale)
    expected = {
        tuple((s + sign * (j * scale - cs) * x) % big for s, x in zip(start, v1))
        for j in range(abs(d))
    }
    got = set()
    for p in points:
        scaled = [x * big for x in p.coords]
        if not all(_integral(x) for x in scaled):
            return False
        got.add(tuple(int(x) for x in scaled))
    return count == abs(d) and len(points) == abs(d) and got == expected


def _check_line_sub3(args, result) -> bool:
    (b, v, anchor, nu, _), (count, dec) = args, result
    k = _dot(nu, v)
    if k == 0:
        if _on_plane(nu, anchor, b):
            return (
                count is None
                and dec is not None
                and (dec.component_count, dec.common_dimension) == (1, 1)
            )
        return count == 0 and dec is None
    if count != abs(k) or dec is None:
        return False
    rep = dec.representative.coords
    # rep lies on the line b + R v exactly when (rep - b) x v is integral
    return (
        (dec.component_count, dec.common_dimension) == (abs(k), 0)
        and _on_plane(nu, anchor, rep)
        and all(_integral(x) for x in _cross(_sub(rep, b), v))
    )


def _check_sub_sub3(args, dec) -> bool:
    """Two plane cosets with normals nu1, nu2 meet in gcd(nu1 x nu2) parallel
    circles (the Smith invariants of the 2x3 matrix of normals), or are
    parallel and meet everywhere or nowhere."""
    a1, nu1, _, a2, nu2, _ = args
    cross = _cross(nu1, nu2)
    if not any(cross):
        if not _on_plane(nu1, a1, a2):
            return dec is None
        return dec is not None and (dec.component_count, dec.common_dimension) == (1, 2)
    g = gcd(*cross)
    if dec is None or (dec.component_count, dec.common_dimension) != (g, 1):
        return False
    rep = dec.representative
    direction = tuple(x // g for x in cross)
    return (
        rep.lattice.vectors in ((direction,), (tuple(-x for x in direction),))
        and _on_plane(nu1, a1, rep.base.coords)
        and _on_plane(nu2, a2, rep.base.coords)
    )


def _check_contains3(args, result) -> bool:
    anchor, nu, _, p = args
    return result is _on_plane(nu, anchor, p)


def _check_image3(args, image) -> bool:
    """x -> A x + t carries {nu . (x - a) in Z} onto {nu' . (y - A a - t) in Z}
    with nu' = nu A^-1; a saturated tangent basis w1, w2 of that image has
    w1 x w2 = +-nu'."""
    anchor, nu, _, a, inv, t = args
    nu2 = tuple(_dot(nu, col) for col in zip(*inv))
    moved = tuple(_dot(row, anchor) + s for row, s in zip(a, t))
    vectors = image.lattice.vectors
    if len(vectors) != 2:
        return False
    cross = _cross(*vectors)
    return cross in (nu2, tuple(-x for x in nu2)) and _on_plane(nu2, moved, image.base.coords)


_CHECKS = {
    "pair2": _check_pair2,
    "line_sub3": _check_line_sub3,
    "sub_sub3": _check_sub_sub3,
    "contains3": _check_contains3,
    "image3": _check_image3,
}


def check(kind: str, args: tuple, result) -> bool:
    return _CHECKS[kind](args, result)

"""Recover the affine model of a grid bijection, or certify that none exists.

The pipeline: read the affine model off the images of 0 and the unit
vectors and verify it pointwise; on failure, scan the discrete lines for
three collinear points whose images are provably non-collinear.  Lines
through two points are computed algebraically, so no global incidence
table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .affine import AffineTorusAuto
from .collineation import (
    DiscreteLine,
    _generators,
    _units,
    affine_table,
    canonical_generator,
    enumerate_discrete_lines,
    index_point,
    is_affine_perm,
    line_points,
    lines_through,
    point_index,
)
from .geometry import RatPoint
from .intmat import det


class NonaffineCollineationError(Exception):
    """The map preserves all discrete lines yet matches no affine map.

    Cannot occur for prime moduli; for composite moduli it is a genuine
    (and reportable) possibility.
    """


@dataclass(frozen=True)
class GridMap:
    """A bijection of the m-grid on the n-torus, stored as image indices in
    lexicographic point order."""

    n: int
    m: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if self.m < 3:
            raise ValueError("modulus too small")
        size = self.m**self.n
        if len(self.images) != size:
            raise ValueError("image table has the wrong length")
        if (
            len(set(self.images)) != size
            or min(self.images) < 0
            or max(self.images) >= size
        ):
            raise ValueError("mapping is not a permutation")

    @property
    def size(self) -> int:
        return self.m**self.n

    def image_of(self, p: tuple[int, ...]) -> tuple[int, ...]:
        return index_point(self.images[point_index(p, self.m)], self.n, self.m)

    @classmethod
    def from_affine(cls, phi: AffineTorusAuto, n: int, m: int) -> GridMap:
        """The grid map of phi; an integral phi must move 0 to a grid point
        (m·b integral), which it then does for every grid point."""
        if phi.modulus not in (None, m):
            raise ValueError("modulus mismatch")
        return cls(n, m, affine_table(phi, n, m))


@dataclass(frozen=True)
class Witness:
    """Certificate that a grid map is not a collineation: three points on
    one discrete line whose images lie on no discrete line at all."""

    points: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    line: DiscreteLine

    def validate(self, f: GridMap) -> bool:
        if len(set(self.points)) != 3:
            return False
        if any(p not in self.line.points for p in self.points):
            return False
        a, b, c = (f.image_of(p) for p in self.points)
        return all(c not in line.points for line in lines_through(a, b, f.m))


def _image_line(
    f: GridMap, points: list[tuple[int, ...]]
) -> tuple[int, ...] | None:
    """A generator of the image of a line's points under f, or None when
    the image is not a discrete line.

    A line q0 + <g> contains q0 + g with gcd(g, m) = 1, and any such point
    generates the same subgroup, so the first image q with gcd(q - q0, m)
    = 1 fixes the only candidate line.
    """
    m = f.m
    images = [f.image_of(p) for p in points]
    q0 = images[0]
    for q in images[1:]:
        g = tuple((y - x) % m for x, y in zip(q0, q))
        if gcd(*g, m) == 1:
            break
    else:
        return None
    span = {tuple((x + k * y) % m for x, y in zip(q0, g)) for k in range(m)}
    return g if span == set(images) else None


def _line_witness(f: GridMap, line: DiscreteLine) -> Witness | None:
    """First point triple of line whose images are non-collinear, in
    lexicographic (i, j, k) scan order; None if every triple fits on some
    line (possible only at composite moduli)."""
    pts = line.points
    images = [f.image_of(p) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            cands = [
                set(c.points) for c in lines_through(images[i], images[j], f.m)
            ]
            for k in range(len(pts)):
                if k in (i, j):
                    continue
                if not any(images[k] in c for c in cands):
                    return Witness((pts[i], pts[j], pts[k]), line)
    return None


def verify_line_preserving(f: GridMap):
    """True when every discrete line maps onto a discrete line; otherwise
    the first Witness, scanning lines by (base, generator) from 0 up."""
    broken = False
    for base, gen in enumerate_discrete_lines(f.n, f.m):
        if _image_line(f, line_points(base, gen, f.m)) is None:
            broken = True
            witness = _line_witness(f, DiscreteLine(f.n, f.m, gen, base))
            if witness is not None:
                return witness
    if not broken:
        return True
    raise NonaffineCollineationError(
        "line images are broken, yet every point triple stays collinear"
    )


def infer_affine(f: GridMap):
    """The affine map agreeing with f on the grid, else a Witness.

    The model is read off the images of 0 and the unit vectors and
    verified at every grid point (`is_affine_perm`).
    """
    phi = is_affine_perm(f.n, f.m, f.images)
    if phi is not None:
        return phi
    verdict = verify_line_preserving(f)
    if verdict is True:
        raise NonaffineCollineationError(
            "map preserves every discrete line but matches no affine map"
        )
    return verdict


@dataclass(frozen=True)
class PropertyReport:
    """Structural facts checked for a verified line-preserving map."""

    parallels_preserved: bool
    blocks_preserved: bool | None
    subtorus_cosets_preserved: bool | None


def _direction_normalizer(f: GridMap) -> tuple | None:
    """A matrix mod m acting on line directions exactly as f does on the
    four block families (horizontal, vertical, slope 1, slope -1), or None
    when no matrix matches.  A translation changes no generator, so the
    lines through 0 stand for their families.

    Blocks are woven out of those four families, so block preservation is a
    statement about f with its direction action divided out; an affine map
    is normalized by its own linear part.
    """
    m = f.m
    families = [(1, 0), (0, 1), (1, 1), (1, m - 1)]
    image_gen = {}
    for d in families:
        gen = _image_line(f, line_points((0, 0), d, m))
        if gen is None:
            return None
        image_gen[d] = canonical_generator(gen, m)
    gh, gv = image_gen[(1, 0)], image_gen[(0, 1)]
    for u1, u2 in product(_units(m), repeat=2):
        col1 = tuple(u1 * x % m for x in gh)
        col2 = tuple(u2 * x % m for x in gv)
        if gcd(det((col1, col2)), m) != 1:
            continue
        diag = tuple((a + b) % m for a, b in zip(col1, col2))
        anti = tuple((a - b) % m for a, b in zip(col1, col2))
        if (
            canonical_generator(diag, m) == image_gen[(1, 1)]
            and canonical_generator(anti, m) == image_gen[(1, m - 1)]
        ):
            return ((col1[0], col2[0]), (col1[1], col2[1]))
    return None


def _blocks_preserved(f: GridMap) -> bool:
    """Whether h = ψ⁻¹∘f, ψ = (direction normalizer, f(0)), maps every block
    onto a block.  Blocks are axis rectangles with x1 − x0 ≡ ±(y1 − y0) mod
    m; the square-sided quadruples (x0, y0), (x0 + d, y0), (x0, y0 + d),
    (x0 + d, y0 + d), d ≠ 0, reach all of them (sides d, −d at (x0, y0) are
    sides d, d at (x0, y0 − d)).  h is a bijection, so an image is a block
    exactly when it has two columns, two rows and such sides."""
    m = f.m
    matrix = _direction_normalizer(f)
    if matrix is None:
        return False
    shift = RatPoint(tuple(Fraction(c, m) for c in f.image_of((0, 0))))
    back = affine_table(AffineTorusAuto(matrix, shift, m).inverse(), 2, m)
    h = [divmod(back[i], m) for i in f.images]
    for x0, y0, d in product(range(m), range(m), range(1, m)):
        x1, y1 = (x0 + d) % m, (y0 + d) % m
        xs, ys = zip(*(h[x * m + y] for x in (x0, x1) for y in (y0, y1)))
        cols, rows = set(xs), set(ys)
        if len(cols) != 2 or len(rows) != 2:
            return False
        (u, v), (s, t) = cols, rows
        if (v - u - t + s) % m and (v - u + t - s) % m:
            return False
    return True


def _prime(m: int) -> bool:
    return m >= 2 and all(m % p for p in range(2, int(m**0.5) + 1))


def _plane_cosets_mod_p(n: int, p: int):
    """All rank-(n-1) subgroup cosets of (Z/p)^n, each as a frozenset of
    points: solution sets of one nonzero linear functional."""
    for normal in _generators(n, p):
        for c in range(p):
            yield frozenset(
                pt
                for pt in product(range(p), repeat=n)
                if sum(a * x for a, x in zip(normal, pt)) % p == c
            )


def _subtorus_cosets_preserved(f: GridMap) -> bool:
    cosets = set(_plane_cosets_mod_p(f.n, f.m))
    for coset in cosets:
        if frozenset(f.image_of(p) for p in coset) not in cosets:
            return False
    return True


def check_paper_properties(f: GridMap) -> PropertyReport:
    """Parallels map to parallels; in 2D, blocks map to blocks; in higher
    dimension at prime modulus, hyperplane subgroup cosets map to hyperplane
    cosets.  Raises ValueError unless f maps every line onto a line."""
    image_gen: dict[tuple[int, ...], tuple[int, ...]] = {}
    parallels = True
    for base, g in enumerate_discrete_lines(f.n, f.m):
        gen = _image_line(f, line_points(base, g, f.m))
        if gen is None:
            raise ValueError("map does not preserve lines")
        gen = canonical_generator(gen, f.m)
        parallels &= image_gen.setdefault(g, gen) == gen
    blocks = _blocks_preserved(f) if f.n == 2 else None
    subtori = (
        _subtorus_cosets_preserved(f) if f.n >= 3 and _prime(f.m) else None
    )
    return PropertyReport(parallels, blocks, subtori)

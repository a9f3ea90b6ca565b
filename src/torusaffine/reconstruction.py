"""Recover the affine model of a grid bijection, or certify that none exists.

The pipeline: read the affine model off the images of 0 and the unit
vectors and verify it pointwise; on failure, scan the discrete lines for
three collinear points whose images are provably non-collinear.  Lines
through two points are computed algebraically, so no global incidence
table is built.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import TYPE_CHECKING

from .common import Frozen
from .grid import (
    DiscreteLine,
    _factorize,
    _table,
    _units,
    affine_table,
    canonical_generator,
    enumerate_discrete_lines,
    index_point,
    is_affine_perm,
    line_indices,
    lines_through,
    point_index,
)

if TYPE_CHECKING:  # imported where a model is built, so a witness never loads it
    from .affine import AffineTorusAuto


class NonaffineCollineationError(Exception):
    """The map preserves all discrete lines yet matches no affine map.

    Cannot occur for prime moduli; for composite moduli it is a genuine
    (and reportable) possibility.
    """


class GridMap(Frozen):
    """A bijection of the m-grid on the n-torus, stored as image indices in
    lexicographic point order."""

    __slots__ = ("n", "m", "images")

    def __init__(self, n: int, m: int, images: tuple[int, ...]):
        if n < 2:
            raise ValueError("dimension must be at least 2")
        if m < 3:
            raise ValueError("modulus too small")
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
        return index_point(self.images[point_index(p, self.m)], self.n, self.m)

    @classmethod
    def from_affine(cls, phi: AffineTorusAuto, n: int, m: int) -> GridMap:
        """The grid map of phi; an integral phi must move 0 to a grid point
        (m·b integral), which it then does for every grid point."""
        if phi.modulus not in (None, m):
            raise ValueError("modulus mismatch")
        return cls(n, m, affine_table(phi, n, m))


class Witness(Frozen):
    """Certificate that a grid map is not a collineation: three points on
    one discrete line whose images lie on no discrete line at all."""

    __slots__ = ("points", "line")

    def validate(self, f: GridMap) -> bool:
        if (self.line.n, self.line.m) != (f.n, f.m) or len(set(self.points)) != 3:
            return False
        on_line = self.line.points
        if any(p not in on_line for p in self.points):
            return False
        a, b, c = (f.image_of(p) for p in self.points)
        return all(c not in line.points for line in lines_through(a, b, f.m))


def _image_line(f: GridMap, indices: list[int]) -> tuple[int, ...] | None:
    """A generator of the image of a line's point indices under f, or None
    when the image is not a discrete line.

    A line q0 + <g> contains q0 + g with gcd(g, m) = 1, and any such point
    generates the same subgroup, so the first image q with gcd(q - q0, m)
    = 1 fixes the only candidate line.  Only the images up to that q are
    decoded into points.
    """
    n, m = f.n, f.m
    images = [f.images[i] for i in indices]
    q0 = index_point(images[0], n, m)
    for i in images[1:]:
        g = tuple((y - x) % m for x, y in zip(q0, index_point(i, n, m)))
        if gcd(*g, m) == 1:
            break
    else:
        return None
    return g if set(line_indices(q0, g, m)) == set(images) else None


def _line_witness(f: GridMap, line: DiscreteLine) -> Witness:
    """First point triple of line whose images are non-collinear, in
    lexicographic (i, j, k) scan order, for a line whose image is not a line.

    One exists by this lemma: in (Z/m)^n a set whose point triples are all
    collinear has at most m points, and m such points form a line.  At
    m = p^k, two of its points whose difference is nonzero mod p lie on
    exactly one line, which then holds the whole set; otherwise the set
    lies in a + p(Z/p^k)^n, and dividing by p reduces to modulus p^(k-1).
    For general m a line is the product of its prime-power reductions
    (CRT).  The m images of the line would form a line otherwise.
    """
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
    raise AssertionError("a set with every point triple collinear is a line")


def verify_line_preserving(f: GridMap):
    """True when every discrete line maps onto a discrete line; otherwise
    the first Witness, scanning lines by (base, generator) from 0 up."""
    for base, gen in enumerate_discrete_lines(f.n, f.m):
        if _image_line(f, line_indices(base, gen, f.m)) is None:
            return _line_witness(f, DiscreteLine(f.n, f.m, gen, base))
    return True


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


class PropertyReport(Frozen):
    """Structural facts checked for a verified line-preserving map; a
    property that is not checked at this (n, m) reads None."""

    __slots__ = (
        "parallels_preserved", "blocks_preserved", "subtorus_cosets_preserved"
    )


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
        gen = _image_line(f, line_indices((0, 0), d, m))
        if gen is None:
            return None
        image_gen[d] = canonical_generator(gen, m)
    gh, gv = image_gen[(1, 0)], image_gen[(0, 1)]
    for u1, u2 in product(_units(m), repeat=2):
        col1 = tuple(u1 * x % m for x in gh)
        col2 = tuple(u2 * x % m for x in gv)
        if gcd(col1[0] * col2[1] - col1[1] * col2[0], m) != 1:
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
    back = [0] * (m * m)
    for i, j in enumerate(_table(matrix, f.image_of((0, 0)), 2, m)):
        back[j] = i
    hx = [back[i] // m for i in f.images]
    hy = [back[i] % m for i in f.images]
    # r0 and r1 are the flat indices of (x0, 0) and (x0 + d, 0)
    for r0, d in product(range(0, m * m, m), range(1, m)):
        r1 = (r0 + d * m) % (m * m)
        for y0 in range(m):
            y1 = (y0 + d) % m
            a, b, c, e = r0 + y0, r0 + y1, r1 + y0, r1 + y1
            cols = {hx[a], hx[b], hx[c], hx[e]}
            rows = {hy[a], hy[b], hy[c], hy[e]}
            if len(cols) != 2 or len(rows) != 2:
                return False
            (u, v), (s, t) = cols, rows
            if (v - u - t + s) % m and (v - u + t - s) % m:
                return False
    return True


def check_paper_properties(f: GridMap) -> PropertyReport:
    """Parallels map to parallels; in 2D, blocks map to blocks; in higher
    dimension at prime modulus, hyperplane subgroup cosets map to hyperplane
    cosets.  Raises ValueError unless f maps every line onto a line.

    The line walk reads image indices straight from f.images.  At prime m
    and n >= 3, a map that sends lines onto lines is affine by the classical
    fundamental theorem over F_m (m >= 3, and F_m has no field automorphism
    but the identity), so the coset field is read off `is_affine_perm`."""
    m = f.m
    # direction -> every generator of the first such line's image subgroup
    image_gens: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    parallels = True
    for base, g in enumerate_discrete_lines(f.n, m):
        gen = _image_line(f, line_indices(base, g, m))
        if gen is None:
            raise ValueError("map does not preserve lines")
        if g not in image_gens:
            image_gens[g] = {tuple(u * x % m for x in gen) for u in _units(m)}
        parallels &= gen in image_gens[g]
    blocks = _blocks_preserved(f) if f.n == 2 else None
    subtori = None
    if f.n >= 3 and list(_factorize(m)) == [(m, 1)]:
        subtori = is_affine_perm(f.n, m, f.images) is not None
    return PropertyReport(parallels, blocks, subtori)

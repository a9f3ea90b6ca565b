"""Recover the affine model of a grid bijection, or certify that none exists.

The pipeline: read the affine model off the images of 0 and the unit
vectors and verify it pointwise; on failure, scan the discrete lines for
three collinear points whose images are provably non-collinear.  Lines
through two points are computed algebraically, so no global incidence
table is built.
"""

from __future__ import annotations

from math import gcd

from .common import Frozen
from .grid import (
    DiscreteLine,
    GridMap,
    enumerate_discrete_lines,
    index_point,
    is_affine_perm,
    line_indices,
    lines_through,
)


class NonaffineCollineationError(Exception):
    """The map preserves all discrete lines yet matches no affine map.

    Cannot occur for prime moduli; for composite moduli it is a genuine
    (and reportable) possibility.
    """


class Witness(Frozen):
    """Certificate that a grid map is not a collineation: three points on
    one discrete line whose images lie on no discrete line at all.

    It certifies the same on T^n: three m-grid points lie on one line of
    T^n exactly when they lie on one discrete line.  A line of T^n through
    grid points a != b is a + R*v with b - a = t*v + k, k in Z^n, so it is
    the closed line a + R*d, d primitive along b - a + k.  A grid point x
    is on it when x - a = s*d mod Z^n; s is then in (1/m)Z, as some integer
    combination of d's entries is 1, so exactly when x is on the discrete
    line a + <d mod m>.  Conversely a + <g> is the trace of the line through a
    with direction primitive_lift(g, m).  So no bijection of T^n that
    extends a table with a valid witness maps lines to lines.
    """

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

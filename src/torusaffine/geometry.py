"""Subtorus cosets, rational lines and block configurations on the torus.

The torus is T^n = R^n / Z^n and its points are ``ratpoint.RatPoint``.  A
rank-k rational subtorus coset is stored as a canonical base point plus a
saturated lattice basis of its tangent directions.  A rational line is the
rank-1 case: ``{[base + t * direction] : t in R}`` with a primitive
integer direction.  Cosets are canonicalized on construction (Hermite basis,
base moved to the canonical transversal slice), so two cosets are equal as
sets exactly when they compare equal structurally.  Counting questions
reduce to Smith normal forms of small integer matrices.  Inside those
computations a point is one common denominator and an integer vector
(``intmat.scaled``), so each output coordinate builds one ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import lcm, prod
from operator import mul
from typing import Sequence

from .common import MAX_POINTS, Frozen
from .intmat import Matrix, det, from_columns, scaled as _scaled
from .intmat import frac_matvec  # noqa: F401  (wrapped by name in bench/layers.py)
from .lattice import LatticeBasis, basis_frames, primitive_part, snf_decomposition
from .ratpoint import RatPoint, _canonical, _frac


@lru_cache(maxsize=1024)
def _frames(lattice: LatticeBasis) -> tuple[Matrix, Matrix]:
    """Deterministic unimodular completion of a saturated basis, with inverse.

    The first k columns of the returned matrix are the basis vectors; the
    inverse carries ambient points into split coordinates where the tangent
    directions come first.  The cache is bounded: an entry is about 1 kB,
    and a process that meets many distinct lattices would otherwise keep
    every frame; the lattices a caller returns to stay cached.
    """
    return basis_frames(lattice)


class RationalSubtorus(Frozen):
    """A coset of a closed connected subgroup with rational tangent.

    The base point is canonicalized by zeroing the tangent coordinates in the
    split frame of the lattice, so equal cosets compare equal.
    """

    __slots__ = ("base", "lattice")

    def __init__(self, base: RatPoint, lattice: LatticeBasis):
        if not lattice.saturated:
            raise ValueError("tangent lattice must be saturated")
        k = lattice.rank
        if k == 0:
            raise ValueError("no direction")
        if base.dim != lattice.dim:
            raise ValueError("base dimension mismatch")
        # In split coordinates the base keeps its transversal part and its
        # tangent part is zeroed: base = U[:, k:] . (U^-1[k:] . base) mod 1,
        # computed on the base scaled to integers over one denominator.
        u, u_inv = _frames(lattice)
        den, nums = _scaled(base.coords)
        split = [sum(map(mul, row, nums)) for row in u_inv[k:]]
        base = tuple(Fraction(sum(map(mul, row[k:], split)) % den, den) for row in u)
        object.__setattr__(self, "base", _canonical(base))
        object.__setattr__(self, "lattice", lattice)

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def __str__(self) -> str:
        dirs = ", ".join(str(v) for v in self.lattice.vectors)
        return f"{self.base} + span({dirs})"


class RationalLine(RationalSubtorus):
    """A rational line: the rank-1 subtorus coset through ``base`` along
    ``direction``.

    The stored direction is primitive with positive first nonzero entry.
    Such a vector is its own Hermite basis and spans a saturated lattice, so
    no reduction is needed to build the canonical form.
    """

    __slots__ = ()

    def __init__(self, base: RatPoint, direction: Sequence[int]):
        prim, _ = primitive_part(direction)
        super().__init__(base, LatticeBasis((prim,), saturated=True))

    @property
    def direction(self) -> tuple[int, ...]:
        return self.lattice.vectors[0]


def line_through(p: RatPoint | Sequence, direction: Sequence[int]) -> RationalLine:
    """The rational line through p with the given nonzero integer direction.

    Raises ValueError("no direction") for the zero vector and
    ValueError("direction entries must be integers") for a fractional entry.
    """
    if not any(direction):
        raise ValueError("no direction")
    base = p if isinstance(p, RatPoint) else RatPoint(tuple(_frac(c) for c in p))
    return RationalLine(base=base, direction=direction)


def contains_point(s: RationalSubtorus, p: RatPoint) -> bool:
    """Exact membership test of a point on a line or subtorus coset."""
    if p.dim != s.dim:
        raise ValueError("dimension mismatch")
    _, u_inv = _frames(s.lattice)
    # p - base is on the coset's lattice iff its transversal split
    # coordinates are integers: U^-1[k:] . delta = 0 (mod den).
    den, ints = _scaled(p.coords + s.base.coords)
    delta = [a - b for a, b in zip(ints[: s.dim], ints[s.dim :])]
    return all(sum(map(mul, row, delta)) % den == 0 for row in u_inv[s.rank :])


def _meet(s1: RationalSubtorus, s2: RationalSubtorus):
    """Solve base1 + B1 x = base2 + B2 y (mod Z^n) for the bases B1, B2 of
    the two cosets' lattices.

    Returns None when the cosets are disjoint; otherwise (count, (scale, p0,
    gens), kernel).  count is the product of the nonzero Smith invariants
    q_j of M = [B1 | -B2], kernel an integer basis of the solutions of
    M (x, y) = 0, and the points base1 + B1 x over the solutions, one per
    residue class, are p0 + sum_j w_j g_j (mod scale), scaled to integers,
    for (q_j, g_j) in gens and 0 <= w_j < q_j.  It runs on scaled integers:
    with target base2 - base1 = t / den and d = u M v, the system reads
    d z = u t / den (mod Z^n) in z = v^-1 (x, y).
    """
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    vectors = s1.lattice.vectors
    columns = list(vectors) + [tuple(-a for a in w) for w in s2.lattice.vectors]
    d, u, v = snf_decomposition(from_columns(columns))
    invariants = [d[i][i] for i in range(min(len(d), len(v))) if d[i][i] != 0]
    r = len(invariants)
    den, t = _scaled(tuple(b - a for a, b in zip(s1.base.coords, s2.base.coords)))
    e = [sum(map(mul, row, t)) for row in u]
    if any(x % den for x in e[r:]):
        return None
    cols = tuple(zip(*v))
    # z_j = (e_j / den + w_j) / q_j and (x, y) = v . (z, 0); map stops at z's
    # end.  Each row of B1 has len(vectors) entries, so map() reads only x.
    denom = den * lcm(*invariants)
    z0 = [x * (denom // (den * q)) for q, x in zip(invariants, e)]
    x0 = tuple(sum(map(mul, row, z0)) for row in v)
    bden, nums = _scaled(s1.base.coords)
    scale = lcm(bden, denom)
    lift, mult = scale // bden, scale // denom
    mat = from_columns(vectors)
    p0 = tuple(b * lift + mult * sum(map(mul, row, x0)) for b, row in zip(nums, mat))
    gens = [
        (q, tuple(mult * (denom // q) * sum(map(mul, row, col)) for row in mat))
        for q, col in zip(invariants, cols)
        if q > 1
    ]
    return prod(invariants), (scale, p0, gens), cols[r:]


def are_parallel(l1: RationalLine, l2: RationalLine) -> bool:
    """True when the directions agree up to sign (equal lines included)."""
    return l1.direction == l2.direction


class IntersectionCount(Frozen):
    """Cardinality of an intersection: a finite count or infinity."""

    __slots__ = ("count",)  # None encodes an infinite intersection

    @classmethod
    def finite(cls, k: int) -> "IntersectionCount":
        if k < 0:
            raise ValueError("negative count")
        return cls(k)

    @classmethod
    def infinite(cls) -> "IntersectionCount":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.count is None

    def __str__(self) -> str:
        return "infinite" if self.is_infinite else str(self.count)


def intersection_count_2d(l1: RationalLine, l2: RationalLine) -> IntersectionCount:
    """Number of intersection points of two rational lines on T^2.

    Non-parallel lines meet in exactly |det(v1 v2)| points; parallel lines
    meet nowhere or coincide.
    """
    if l1.dim != 2 or l2.dim != 2:
        raise ValueError("T^2 lines required")
    if are_parallel(l1, l2):
        if l1 == l2:
            return IntersectionCount.infinite()
        return IntersectionCount.finite(0)
    (p1, q1), (p2, q2) = l1.direction, l2.direction
    return IntersectionCount.finite(abs(p1 * q2 - q1 * p2))


def intersection_points(l1: RationalLine, l2: RationalLine) -> tuple[RatPoint, ...]:
    """The exact, duplicate-free intersection of two distinct rational lines.

    Sorted lexicographically by coordinates.  Equal lines are refused
    (ValueError "infinite intersection"); parallel distinct lines give ().
    In T^n with n > 2 the result may be empty even for non-parallel lines.
    """
    if l1 == l2:
        raise ValueError("infinite intersection")
    if are_parallel(l1, l2):
        return ()
    met = _meet(l1, l2)
    if met is None:
        return ()
    count, (scale, p0, gens), _ = met
    if count > MAX_POINTS:
        raise ValueError(f"{count} solutions, more than {MAX_POINTS} to build")
    found = {tuple(c % scale for c in p0)}
    for q, g in gens:
        found = {
            tuple((a + w * b) % scale for a, b in zip(p, g))
            for p in found
            for w in range(q)
        }
    return tuple(
        _canonical(tuple(Fraction(c, scale) for c in p)) for p in sorted(found)
    )


def line_hyperplane_count(line: RationalLine, axis: int) -> IntersectionCount:
    """Intersection count of a line with the coordinate hyperplane
    {x_axis = 0} (the subtorus spanned by the other coordinate directions).

    ``axis`` is 0-based.  A line crossing the hyperplane transversally
    meets it in |direction[axis]| points.
    """
    if not 0 <= axis < line.dim:
        raise ValueError("axis out of range")
    comp = line.direction[axis]
    if comp != 0:
        return IntersectionCount.finite(abs(comp))
    if line.base.coords[axis] == 0:
        return IntersectionCount.infinite()
    return IntersectionCount.finite(0)


def line_grid_points(line: RationalLine, m: int) -> tuple[RatPoint, ...]:
    """The trace of a line on the grid of denominator-m points.

    Nonempty exactly when the canonical base lies on the grid, in which
    case it consists of the m points base + (k/m) * direction.  Sorted
    lexicographically.
    """
    if m < 1:
        raise ValueError("positive modulus required")
    if any(m % c.denominator != 0 for c in line.base.coords):
        return ()
    pts = set()
    for k in range(m):
        pts.add(
            RatPoint(
                tuple(
                    b + Fraction(k * x, m)
                    for b, x in zip(line.base.coords, line.direction)
                )
            )
        )
    return tuple(sorted(pts, key=lambda p: p.coords))


def grid_oracle_count(
    l1: RationalLine, l2: RationalLine, max_denominator: int | None = None
) -> int:
    """Independent intersection count: enumerate both grid traces at a
    common denominator fine enough to hold every intersection point, and
    literally intersect the point sets.

    Raises ValueError for parallel lines and when the grid denominator
    exceeds ``max_denominator``.
    """
    if are_parallel(l1, l2):
        raise ValueError("parallel lines: the grid oracle refuses")
    d = abs(det((l1.direction, l2.direction)))
    denom = lcm(
        1, *(c.denominator for c in l1.base.coords + l2.base.coords)
    )
    m = denom * d
    if max_denominator is not None and m > max_denominator:
        raise ValueError(
            f"oracle grid denominator {m} exceeds bound {max_denominator}"
        )
    return len(set(line_grid_points(l1, m)) & set(line_grid_points(l2, m)))


def _slope_match(a: RatPoint, b: RatPoint, sign: int) -> bool:
    # a and b lie on a common line of slope +-1
    dx = b.coords[0] - a.coords[0]
    dy = b.coords[1] - a.coords[1]
    return (dx - sign * dy) % 1 == 0


def is_block(p1: RatPoint, p2: RatPoint, p3: RatPoint, p4: RatPoint) -> bool:
    """Do the four T^2 points form a block under some labeling (P,Q,R,S)?

    The labeling must satisfy: P,Q on one horizontal line and R,S on
    another; P,R on one vertical line and Q,S on another; P,S on a line of
    slope 1 and Q,R on a line of slope -1.  Duplicate points never form a
    block.
    """
    pts = (p1, p2, p3, p4)
    if any(p.dim != 2 for p in pts):
        raise ValueError("T^2 points required")
    if len(set(pts)) != 4:
        return False
    for pp, qq, rr, ss in permutations(pts):
        if (
            pp.coords[1] == qq.coords[1]
            and rr.coords[1] == ss.coords[1]
            and pp.coords[0] == rr.coords[0]
            and qq.coords[0] == ss.coords[0]
            and _slope_match(pp, ss, 1)
            and _slope_match(qq, rr, -1)
        ):
            return True
    return False


def block_criterion(x0, x1, y0, y1) -> bool:
    """Closed-form test: the four points (x_i, y_j) form a block iff
    x1 - x0 = +-(y1 - y0) on the circle.  Requires x0 != x1 and y0 != y1."""
    x0, x1, y0, y1 = _frac(x0) % 1, _frac(x1) % 1, _frac(y0) % 1, _frac(y1) % 1
    if x0 == x1 or y0 == y1:
        raise ValueError("degenerate rectangle")
    dx = (x1 - x0) % 1
    dy = (y1 - y0) % 1
    return dx == dy or (dx + dy) % 1 == 0

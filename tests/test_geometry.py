"""Torus lines: canonical forms, intersection counts, grids, blocks.

The derived expectations here were frozen from the grid-enumeration oracle
(enumerate both traces at a fine common denominator and intersect the point
sets), written before the closed-form code it certifies.
"""

import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusaffine.affine import AffineTorusAuto
from torusaffine.geometry import (
    IntersectionCount,
    RatPoint,
    RationalSubtorus,
    are_parallel,
    block_criterion,
    contains_point,
    grid_oracle_count,
    intersection_count_2d,
    intersection_points,
    is_block,
    line_grid_points,
    line_hyperplane_count,
    line_through,
)
from torusaffine.grid import DiscreteLine, is_affine_perm, primitive_lift
from torusaffine.lattice import hnf
from torusaffine.ratpoint import origin, point
from torusaffine.intmat import identity, matvec
from torusaffine.reconstruction import GridMap


def loop_points(line, m):
    """Oracle helper: the grid-m trace of a line by direct enumeration.

    A grid point on the line must sit at parameter k/m (the direction is
    primitive), so walking the full loop in m steps enumerates the trace;
    if the base itself is off the grid, so is every point of the loop.
    """
    if any(m % c.denominator for c in line.base.coords):
        return frozenset()
    out = set()
    for k in range(m):
        coords = tuple(
            (b + Fraction(k * v, m)) % 1
            for b, v in zip(line.base.coords, line.direction)
        )
        out.add(coords)
    return frozenset(out)


def oracle_pair_count(l1, l2):
    """Oracle: intersection cardinality of two non-parallel T^2 lines by
    trace enumeration at denominator lcm(base denominators) * |det|."""
    (p1, q1), (p2, q2) = l1.direction, l2.direction
    d = abs(p1 * q2 - q1 * p2)
    assert d != 0
    den = 1
    for c in l1.base.coords + l2.base.coords:
        den = lcm(den, c.denominator)
    m = den * d
    return len(loop_points(l1, m) & loop_points(l2, m))


# ------------------------------------------------------------ points


def test_point_reduction():
    p = point("7/6", "-1/4")
    assert p.coords == (Fraction(1, 6), Fraction(3, 4))
    assert point(1, 2) == origin(2)


# ---------------------------------------------------- canonical lines


def test_line_through_zero_direction():
    with pytest.raises(ValueError, match="no direction"):
        line_through(origin(2), (0, 0))


def test_line_through_refuses_fractional_direction():
    # int() would truncate (3/2, 1) to the direction (1, 1)
    with pytest.raises(ValueError, match="direction entries must be integers"):
        line_through((0, 0), (Fraction(3, 2), 1))
    assert line_through((0, 0), (Fraction(4, 2), 2.0)).direction == (1, 1)


def test_line_canonicalization_example():
    ell = line_through(point("1/6", 0), (2, 3))
    assert ell.direction == (2, 3)
    assert contains_point(ell, point("1/6", 0))
    # same set, different presentation
    same = line_through(point("1/6", 0), (-2, -3))
    assert same == ell
    shifted = line_through(
        RatPoint((Fraction(1, 6) + Fraction(2, 5), Fraction(3, 5))), (2, 3)
    )
    assert shifted == ell


PRIMITIVE_DIRS = [
    (p, q)
    for p in range(-6, 7)
    for q in range(-6, 7)
    if (p, q) != (0, 0) and gcd(p, q) == 1
]


def primitive_dirs_2d():
    return st.sampled_from(PRIMITIVE_DIRS)


def grid_points_2d(den=12):
    return st.builds(
        lambda a, b: RatPoint((Fraction(a, den), Fraction(b, den))),
        st.integers(0, den - 1),
        st.integers(0, den - 1),
    )


@given(grid_points_2d(), primitive_dirs_2d(), st.integers(-40, 40), st.integers(1, 9))
@settings(max_examples=200)
def test_line_canonical_under_reparametrization(base, d, knum, kden):
    ell = line_through(base, d)
    t = Fraction(knum, kden)
    moved = RatPoint(
        tuple(b + t * x for b, x in zip(base.coords, d))
    )
    assert line_through(moved, (-d[0], -d[1])) == ell
    assert contains_point(ell, moved)


def test_contains_negative():
    ell = line_through(origin(2), (1, 1))
    assert not contains_point(ell, point("1/3", "2/3"))
    assert contains_point(ell, point("1/3", "1/3"))


# ------------------------------------------------- intersection counts


def test_intersection_count_examples():
    diag = line_through(origin(2), (1, 1))
    anti = line_through(origin(2), (1, -1))
    assert intersection_count_2d(diag, anti) == IntersectionCount.finite(2)
    assert oracle_pair_count(diag, anti) == 2

    a = line_through(origin(2), (3, 1))
    b = line_through(origin(2), (1, 2))
    assert intersection_count_2d(a, b) == IntersectionCount.finite(5)
    assert oracle_pair_count(a, b) == 5

    horiz0 = line_through(origin(2), (1, 0))
    horiz13 = line_through(point(0, "1/3"), (1, 0))
    assert intersection_count_2d(horiz0, horiz13) == IntersectionCount.finite(0)
    assert intersection_count_2d(horiz0, horiz0).is_infinite


@given(grid_points_2d(), grid_points_2d(), primitive_dirs_2d(), primitive_dirs_2d())
@settings(max_examples=150, deadline=None)
def test_intersection_count_matches_oracle(b1, b2, d1, d2):
    l1 = line_through(b1, d1)
    l2 = line_through(b2, d2)
    got = intersection_count_2d(l1, l2)
    if are_parallel(l1, l2):
        assert got.is_infinite == (l1 == l2)
        if not got.is_infinite:
            assert got.count == 0
    else:
        assert got.count == oracle_pair_count(l1, l2)
        assert got.count >= 1


# ------------------------------------------------- intersection points


def test_intersection_points_examples():
    diag = line_through(origin(2), (1, 1))
    anti = line_through(origin(2), (1, -1))
    pts = intersection_points(diag, anti)
    assert pts == (origin(2), point("1/2", "1/2"))

    vert = line_through(origin(2), (0, 1))
    steep = line_through(origin(2), (2, 3))
    assert intersection_points(steep, vert) == (origin(2), point(0, "1/2"))

    with pytest.raises(ValueError, match="infinite intersection"):
        intersection_points(diag, line_through(point("1/2", "1/2"), (1, 1)))

    par1 = line_through(origin(2), (1, 0))
    par2 = line_through(point(0, "1/2"), (1, 0))
    assert intersection_points(par1, par2) == ()


@given(grid_points_2d(), grid_points_2d(), primitive_dirs_2d(), primitive_dirs_2d())
@settings(max_examples=100, deadline=None)
def test_intersection_points_lie_on_both(b1, b2, d1, d2):
    l1 = line_through(b1, d1)
    l2 = line_through(b2, d2)
    if l1 == l2 or are_parallel(l1, l2):
        return
    pts = intersection_points(l1, l2)
    assert len(pts) == len(set(pts))
    assert len(pts) == intersection_count_2d(l1, l2).count
    for p in pts:
        assert contains_point(l1, p) and contains_point(l2, p)


def test_intersection_points_t3():
    # skew rational lines in T^3 can miss each other entirely
    l1 = line_through(origin(3), (1, 0, 0))
    l2 = line_through(point("0", "1/2", "1/3"), (0, 1, 0))
    assert intersection_points(l1, l2) == ()
    l3 = line_through(point("0", "1/2", "0"), (0, 1, 0))
    pts = intersection_points(l1, l3)
    assert pts == (origin(3),)


def test_intersection_points_refuses_huge_lists():
    # |det| = 1000001 points: the count is known at once, so the refusal
    # comes before any point is built
    l1 = line_through(origin(2), (1, 0))
    l2 = line_through(point("1/3", 0), (1, 1000001))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="1000001 solutions, more than 1000000 to build"):
        intersection_points(l1, l2)
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------- hyperplane counts


def test_line_hyperplane_examples():
    steep = line_through(origin(2), (2, 3))
    assert line_hyperplane_count(steep, 0) == IntersectionCount.finite(2)
    assert line_hyperplane_count(steep, 1) == IntersectionCount.finite(3)

    vert = line_through(origin(2), (0, 1))
    assert line_hyperplane_count(vert, 0).is_infinite

    horiz13 = line_through(point(0, "1/3"), (1, 0))
    assert line_hyperplane_count(horiz13, 1) == IntersectionCount.finite(0)


def oracle_hyperplane_count(line, axis):
    den = 1
    for c in line.base.coords:
        den = lcm(den, c.denominator)
    comp = line.direction[axis]
    if comp == 0:
        trace = loop_points(line, den)
        if all(p[axis] == 0 for p in trace):
            return None  # contained
        return 0
    m = den * abs(comp)
    return sum(1 for p in loop_points(line, m) if p[axis] == 0)


@given(grid_points_2d(den=6), primitive_dirs_2d(), st.integers(0, 1))
@settings(max_examples=150, deadline=None)
def test_hyperplane_count_matches_oracle(base, d, axis):
    ell = line_through(base, d)
    got = line_hyperplane_count(ell, axis)
    expected = oracle_hyperplane_count(ell, axis)
    if expected is None:
        assert got.is_infinite
    else:
        assert got.count == expected


# ------------------------------------------------------- grid traces


def test_line_grid_points_examples():
    steep = line_through(origin(2), (2, 3))
    got = line_grid_points(steep, 5)
    expected = {
        point(0, 0),
        point("2/5", "3/5"),
        point("4/5", "1/5"),
        point("1/5", "4/5"),
        point("3/5", "2/5"),
    }
    assert set(got) == expected
    assert got == tuple(sorted(expected, key=lambda p: p.coords))

    # a horizontal line at an off-grid height misses the grid entirely
    off = line_through(point(0, "1/2"), (1, 0))
    assert line_grid_points(off, 3) == ()
    # but (1/2, 0) lies on the horizontal circle through the origin,
    # whose trace is full
    on_axis = line_through(point("1/2", 0), (1, 0))
    assert len(line_grid_points(on_axis, 3)) == 3


@given(grid_points_2d(den=8), primitive_dirs_2d(), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_line_grid_points_matches_loop_oracle(base, d, m):
    ell = line_through(base, d)
    got = line_grid_points(ell, m)
    assert frozenset(p.coords for p in got) == loop_points(ell, m)
    if got:
        assert len(got) == m


# -------------------------------------------------------- reflection

REFLECT_X = AffineTorusAuto(((1, 0), (0, -1)), origin(2))


def reflect_x(line):
    """Image of a T^2 line under the reflection (x, y) -> (x, -y)."""
    return line_through(
        REFLECT_X.apply(line.base), matvec(REFLECT_X.matrix, line.direction)
    )


def test_reflect_x_example():
    ell = line_through(point(0, "1/3"), (1, 1))
    mirrored = reflect_x(ell)
    assert mirrored == line_through(point(0, "2/3"), (1, -1))


@given(grid_points_2d(), primitive_dirs_2d())
@settings(max_examples=150)
def test_reflect_x_involution(base, d):
    ell = line_through(base, d)
    assert reflect_x(reflect_x(ell)) == ell


@given(grid_points_2d(den=6), grid_points_2d(den=6), primitive_dirs_2d(), primitive_dirs_2d())
@settings(max_examples=100, deadline=None)
def test_reflect_x_preserves_intersection_counts(b1, b2, d1, d2):
    l1 = line_through(b1, d1)
    l2 = line_through(b2, d2)
    assert intersection_count_2d(reflect_x(l1), reflect_x(l2)) == intersection_count_2d(l1, l2)


# ------------------------------------------------------------ blocks


def test_block_examples():
    assert is_block(
        point(0, 0), point("1/3", 0), point(0, "1/3"), point("1/3", "1/3")
    )
    assert block_criterion(0, "1/3", 0, "1/3")

    assert not is_block(
        point(0, 0), point("1/3", 0), point(0, "1/4"), point("1/3", "1/4")
    )
    assert not block_criterion(0, "1/3", 0, "1/4")

    # side-1/2 square: both diagonal conditions degenerate, still a block
    assert is_block(
        point(0, 0), point("1/2", 0), point(0, "1/2"), point("1/2", "1/2")
    )
    assert block_criterion(0, "1/2", 0, "1/2")


def test_block_duplicates_and_degenerate():
    assert not is_block(point(0, 0), point(0, 0), point("1/3", 0), point(0, "1/3"))
    with pytest.raises(ValueError):
        block_criterion(0, 0, 0, "1/3")


def test_block_antidiagonal_case():
    # x1-x0 = -(y1-y0): the other labeling of the criterion
    assert block_criterion(0, "1/3", 0, "2/3")
    assert is_block(
        point(0, 0), point("1/3", 0), point(0, "2/3"), point("1/3", "2/3")
    )


@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=200)
def test_block_criterion_matches_incidence_test(a, b, c, d):
    x0, x1 = Fraction(a, 8), Fraction(b, 8)
    y0, y1 = Fraction(c, 8), Fraction(d, 8)
    if x0 == x1 or y0 == y1:
        return
    corners = [
        RatPoint((x0, y0)),
        RatPoint((x0, y1)),
        RatPoint((x1, y0)),
        RatPoint((x1, y1)),
    ]
    assert is_block(*corners) == block_criterion(x0, x1, y0, y1)


# ---------------------------------------------------------- refusals

X_AXIS_2 = line_through(origin(2), (1, 0))
X_AXIS_3 = line_through(origin(3), (1, 0, 0))
Y_AXIS_3 = line_through(origin(3), (0, 1, 0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RationalSubtorus(origin(2), hnf([(2, 0)])),
         "tangent lattice must be saturated"),
        (lambda: RationalSubtorus(origin(2), hnf([(0, 0)])), "no direction"),
        (lambda: RationalSubtorus(origin(3), hnf([(1, 0)])),
         "base dimension mismatch"),
        (lambda: AffineTorusAuto(((1, 0),), origin(2)), "matrix must be square"),
        (lambda: AffineTorusAuto(identity(2), origin(3)),
         "translation dimension mismatch"),
        (lambda: AffineTorusAuto(identity(2), origin(2), modulus=1),
         "modulus must be at least 2"),
        (lambda: hnf([]), "empty generating set"),
        (lambda: hnf([(1, 0), (1, 0, 0)]), "generators of mixed dimension"),
        (lambda: GridMap(1, 3, (0, 1, 2)), "dimension must be at least 2"),
        (lambda: GridMap.from_affine(
            AffineTorusAuto(identity(2), origin(2), modulus=5), 2, 3
        ), "modulus mismatch"),
        (lambda: is_affine_perm(2, 3, tuple(range(8))),
         "image table has the wrong length"),
        (lambda: DiscreteLine(2, 5, (1, 0), (0, 0, 0)), "dimension mismatch"),
        (lambda: primitive_lift((2, 4), 6),
         "generator shares a factor with the modulus"),
        (lambda: line_hyperplane_count(X_AXIS_2, 2), "axis out of range"),
        (lambda: line_grid_points(X_AXIS_2, 0), "positive modulus required"),
        (lambda: is_block(*[origin(3)] * 4), "T^2 points required"),
        (lambda: intersection_count_2d(X_AXIS_3, Y_AXIS_3), "T^2 lines required"),
        (lambda: IntersectionCount.finite(-1), "negative count"),
    ],
)
def test_library_refusals(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_grid_oracle_refuses_lines_off_t2():
    # a T^2 oracle: refused before the determinant of non-square directions
    for l1, l2 in ((X_AXIS_3, Y_AXIS_3), (X_AXIS_2, Y_AXIS_3)):
        with pytest.raises(ValueError) as err:
            grid_oracle_count(l1, l2)
        assert str(err.value) == "T^2 lines required"

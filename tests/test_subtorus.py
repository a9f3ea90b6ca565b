"""Subtorus cosets: membership, counting, components, quotients.

Expected values marked as frozen were produced by the trace-enumeration
oracle below (walk the coset's grid points directly) before the lattice
arithmetic they certify existed.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusaffine.affine import AffineTorusAuto
from torusaffine.geometry import (
    intersection_count_2d,
    line_through,
)
from torusaffine.intmat import from_columns, matvec, scaled
from torusaffine.lattice import hnf, saturate, snf_decomposition
from torusaffine.ratpoint import RatPoint, origin, point
from torusaffine.subtorus import (
    ComponentDecomposition,
    RationalSubtorus,
    contains_point,
    image_subtorus,
    intersect_subtori,
    line_as_subtorus,
    line_subtorus_count,
    quotient_project,
    subtorus_span,
)


def span_trace(base_coords, vectors, m):
    """Oracle: grid-m points of base + span(vectors), by walking all integer
    combinations of vectors/m.  Assumes base lies on the grid."""
    n = len(base_coords)
    base = tuple(Fraction(c) for c in base_coords)
    assert all(m % c.denominator == 0 for c in base)
    pts = set()
    for combo in product(range(m), repeat=len(vectors)):
        coords = list(base)
        for c, v in zip(combo, vectors):
            for i in range(n):
                coords[i] += Fraction(c * v[i], m)
        pts.add(tuple(x % 1 for x in coords))
    return pts


def line_trace(base_coords, direction, m):
    base = tuple(Fraction(c) for c in base_coords)
    if any(m % c.denominator for c in base):
        return set()
    return {
        tuple((b + Fraction(k * v, m)) % 1 for b, v in zip(base, direction))
        for k in range(m)
    }


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


# ------------------------------------------------------------- spans


def test_span_coordinate_circle():
    s = subtorus_span(origin(3), [E1])
    assert s.rank == 1
    assert s.lattice.vectors == (E1,)
    assert s.base == origin(3)


def test_span_coordinate_two_torus():
    s = subtorus_span(origin(3), [E1, E2])
    assert s.rank == 2
    assert s.lattice.vectors == (E1, E2)


def test_span_saturates():
    s = subtorus_span(origin(3), [(2, 2, 0), (0, 2, 2)])
    assert s.rank == 2
    assert s.lattice.saturated
    # the generators halve to (1,1,0) and (0,1,1); frozen saturated basis
    assert s.lattice.vectors == ((1, 0, -1), (0, 1, 1))
    assert contains_point(s, point("1/2", "1/2", 0))
    grid = span_trace((0, 0, 0), s.lattice.vectors, 2)
    assert (Fraction(1, 2), Fraction(1, 2), Fraction(0)) in grid


def test_span_rejects_zero():
    with pytest.raises(ValueError, match="no direction"):
        subtorus_span(origin(3), [(0, 0, 0)])


def test_base_canonicalization():
    plain = subtorus_span(point(0, 0, "1/2"), [E1, E2])
    shifted = subtorus_span(point("1/3", "1/4", "1/2"), [E1, E2])
    assert plain == shifted
    assert plain.base == point(0, 0, "1/2")


VECS3 = [
    v
    for v in product(range(-3, 4), repeat=3)
    if v != (0, 0, 0)
]


@given(
    st.sampled_from(VECS3),
    st.sampled_from(VECS3),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(1, 4),
)
@settings(max_examples=150)
def test_base_shift_by_tangent_is_invisible(v1, v2, anum, bnum, den):
    s = subtorus_span(origin(3), [v1, v2])
    a = Fraction(anum, den)
    b = Fraction(bnum, den)
    w1, *rest = s.lattice.vectors
    w2 = rest[0] if rest else (0, 0, 0)
    moved = tuple(a * x + b * y for x, y in zip(w1, w2))
    assert subtorus_span(point(*moved), [v1, v2]) == s


# --------------------------------------------------------- membership


def test_contains_coordinate_two_torus():
    s = subtorus_span(origin(3), [E1, E2])
    assert contains_point(s, point("1/2", "1/3", 0))
    assert not contains_point(s, point(0, 0, "1/2"))


def test_contains_skew_plane():
    s = subtorus_span(origin(3), [(1, 1, 0), (0, 1, 1)])
    # frozen from the denominator-2 trace of the span
    assert (
        Fraction(1, 2),
        Fraction(0),
        Fraction(1, 2),
    ) in span_trace((0, 0, 0), [(1, 1, 0), (0, 1, 1)], 2)
    assert contains_point(s, point("1/2", 0, "1/2"))
    assert not contains_point(s, point("1/2", 0, 0))


@given(st.sampled_from(VECS3), st.sampled_from(VECS3), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=120, deadline=None)
def test_contains_matches_trace_oracle(v1, v2, a, b, c):
    s = subtorus_span(origin(3), [v1, v2])
    p = point(Fraction(a, 6), Fraction(b, 6), Fraction(c, 6))
    expected = p.coords in span_trace((0, 0, 0), s.lattice.vectors, 6)
    assert contains_point(s, p) == expected


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_line_is_rank_one_subtorus(data):
    n = data.draw(st.integers(2, 4))

    def draw_vec(lo, hi):
        return data.draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))

    def grid_point(xs):
        return point(*(Fraction(x, 6) for x in xs))

    v = draw_vec(-4, 4)
    assume(gcd(*v) == 1)
    base = grid_point(draw_vec(0, 5))
    ell = line_through(base, v)
    assert isinstance(ell, RationalSubtorus) and ell.rank == 1
    assert ell.lattice == hnf([v]) and ell.lattice.saturated
    assert line_as_subtorus(ell).base == ell.base
    # the oracle walks the grid-6 trace from the uncanonicalized base
    trace = line_trace(base.coords, v, 6)
    k = data.draw(st.integers(0, 5))
    on_line = point(*(b + Fraction(k * c, 6) for b, c in zip(base.coords, v)))
    for p in (on_line, grid_point(draw_vec(0, 5))):
        assert contains_point(ell, p) == (p.coords in trace)


# ------------------------------------------------- line meets subtorus


def test_line_count_coordinate_cases():
    s = subtorus_span(origin(3), [E1, E2])
    vertical = line_through(origin(3), E3)
    assert line_subtorus_count(vertical, s).count == 1

    inside = line_through(point("1/3", 0, 0), (1, 1, 0))
    assert line_subtorus_count(inside, s).is_infinite

    steep = line_through(origin(3), (1, 1, 2))
    got = line_subtorus_count(steep, s)
    # frozen from the trace oracle at denominator 2
    trace = line_trace((0, 0, 0), (1, 1, 2), 2) & span_trace((0, 0, 0), [E1, E2], 2)
    assert len(trace) == 2
    assert got.count == 2


def test_line_count_disjoint_parallel():
    s = subtorus_span(origin(3), [E1, E2])
    lifted = line_through(point(0, 0, "1/2"), (1, 1, 0))
    assert line_subtorus_count(lifted, s).count == 0


def test_line_count_skew_miss():
    s = subtorus_span(origin(2), [(1, 0)])
    off = line_through(point(0, "1/2"), (1, 0))
    assert line_subtorus_count(off, s).count == 0


@given(
    st.sampled_from(VECS3),
    st.sampled_from(VECS3),
    st.sampled_from(VECS3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_line_count_matches_normal_character(v1, v2, d, a, b, c):
    nu = cross(v1, v2)
    assume(nu != (0, 0, 0))
    s = subtorus_span(origin(3), [v1, v2])
    assert s.rank == 2
    # the cross product of a basis of the plane is primitive once the
    # lattice is saturated; recompute it from the saturated vectors
    nu = cross(*s.lattice.vectors)
    assert gcd(gcd(nu[0], nu[1]), nu[2]) == 1
    base = point(Fraction(a, 4), Fraction(b, 4), Fraction(c, 4))
    ell = line_through(base, d)
    pairing = sum(x * y for x, y in zip(nu, ell.direction))
    offset = sum(Fraction(x) * y for x, y in zip(nu, ell.base.coords))
    got = line_subtorus_count(ell, s)
    if pairing == 0:
        if offset % 1 == 0:
            assert got.is_infinite
        else:
            assert got.count == 0
    else:
        assert got.count == abs(pairing)


@given(st.sampled_from(VECS3), st.sampled_from(VECS3), st.sampled_from(VECS3))
@settings(max_examples=120, deadline=None)
def test_finiteness_outside(v1, v2, d):
    s = subtorus_span(origin(3), [v1, v2])
    ell = line_through(point("1/5", 0, "2/5"), d)
    got = line_subtorus_count(ell, s)
    if got.is_infinite:
        assert contains_point(s, ell.base)
    else:
        assert got.count >= 0


# -------------------------------------------------- intersect subtori


def test_intersect_two_coordinate_planes():
    s1 = subtorus_span(origin(3), [E1, E2])
    s2 = subtorus_span(origin(3), [E1, E3])
    dec = intersect_subtori(s1, s2)
    assert dec is not None
    assert dec.component_count == 1
    assert dec.common_dimension == 1
    assert dec.representative == subtorus_span(origin(3), [E1])


def test_intersect_diagonal_lines():
    s1 = line_as_subtorus(line_through(origin(2), (1, 1)))
    s2 = line_as_subtorus(line_through(origin(2), (1, -1)))
    dec = intersect_subtori(s1, s2)
    assert dec is not None
    assert dec.common_dimension == 0
    assert dec.component_count == 2
    assert dec.representative == origin(2)


def test_intersect_disjoint_parallel_circles():
    s1 = subtorus_span(origin(2), [(1, 0)])
    s2 = subtorus_span(point(0, "1/2"), [(1, 0)])
    assert intersect_subtori(s1, s2) is None


def test_intersect_self():
    s = subtorus_span(point(0, 0, "1/3"), [E1, E2])
    dec = intersect_subtori(s, s)
    assert dec == ComponentDecomposition(1, 2, s)


def test_intersect_offset_planes_t3():
    # two skew planes through different points; representative must lie on both
    s1 = subtorus_span(point(0, 0, "1/2"), [(1, 1, 0), (0, 1, 1)])
    s2 = subtorus_span(origin(3), [E1, E2])
    dec = intersect_subtori(s1, s2)
    assert dec is not None
    assert dec.common_dimension == 1
    rep = dec.representative
    assert contains_point(s1, rep.base) and contains_point(s2, rep.base)
    for v in rep.lattice.vectors:
        shifted = point(*(b + x for b, x in zip(rep.base.coords, v)))
        assert contains_point(s1, shifted) and contains_point(s2, shifted)


def test_intersect_answers_huge_solution_sets():
    # the planes meet in 4903108 points; the least of them comes from the
    # solution coset by Hermite reduction, without listing the points
    s1 = subtorus_span(origin(4), [(-20, -12, -37, 42), (0, 11, -31, -39)])
    s2 = subtorus_span(
        point("1/2", 0, 0, "1/3"), [(-42, -48, 1, 20), (-13, 47, -43, -22)]
    )
    start = time.perf_counter()
    dec = intersect_subtori(s1, s2)
    assert time.perf_counter() - start < 1.0
    assert (dec.component_count, dec.common_dimension) == (4903108, 0)
    assert contains_point(s1, dec.representative)
    assert contains_point(s2, dec.representative)


def listed_intersection(s1, s2):
    """intersect_subtori as first built: solve M x = target (mod Z^n) with
    one particular solution per residue class, list the points of s1 they
    give and take the least as the representative's anchor."""
    k1 = s1.rank
    columns = list(s1.lattice.vectors) + [tuple(-a for a in v) for v in s2.lattice.vectors]
    target = tuple(b - a for a, b in zip(s1.base.coords, s2.base.coords))
    d, u, v = snf_decomposition(from_columns(columns))
    invariants = [d[i][i] for i in range(min(len(d), len(v))) if d[i][i] != 0]
    r = len(invariants)
    den, t = scaled(target)
    e = [sum(x * y for x, y in zip(row, t)) for row in u]
    if any(x % den for x in e[r:]):
        return None
    denom = den * lcm(*invariants)
    bases = [x * (denom // (den * q)) for q, x in zip(invariants, e)]
    steps = [denom // q for q in invariants]
    sols = []
    for residues in product(*(range(q) for q in invariants)):
        y = [b + w * s for b, w, s in zip(bases, residues, steps)]
        sols.append(tuple(sum(x * z for x, z in zip(row, y)) for row in v))
    bden, nums = scaled(s1.base.coords)
    scale = lcm(bden, denom)
    rows = from_columns(s1.lattice.vectors)
    points = {
        tuple(
            (b * (scale // bden) + scale // denom * sum(c * z for c, z in zip(row, x)))
            % scale
            for b, row in zip(nums, rows)
        )
        for x in sols
    }
    anchor = RatPoint(tuple(Fraction(c, scale) for c in min(points)))
    kernel = [tuple(row[j] for row in v) for j in range(r, len(v))]
    images = [matvec(rows, coeffs[:k1]) for coeffs in kernel]
    if not images:
        return len(sols), 0, anchor
    tangent = saturate(hnf(images))
    return len(sols), tangent.rank, RationalSubtorus(anchor, tangent)


def test_least_point_matches_listing():
    rng = random.Random(14)
    seen = {0: 0, 1: 0}
    for _ in range(400):
        n = rng.choice((3, 4))
        ranks = rng.choice([(1, 2), (2, 1), (2, 2)] if n == 3 else [(2, 2), (2, 3), (3, 2)])
        pair = []
        for k in ranks:
            vecs = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            if saturate(hnf(vecs)).rank != k:
                break
            base = tuple(Fraction(rng.randrange(q), q) for q in rng.choices(range(1, 7), k=n))
            pair.append(subtorus_span(RatPoint(base), vecs))
        if len(pair) < 2:
            continue
        d = snf_decomposition(from_columns(pair[0].lattice.vectors + pair[1].lattice.vectors))[0]
        count = 1
        for i in range(min(len(d), len(d[0]))):
            count *= d[i][i] or 1
        if count > 2000:
            continue
        expected = listed_intersection(*pair)
        dec = intersect_subtori(*pair)
        if expected is None:
            assert dec is None
            continue
        got = (dec.component_count, dec.common_dimension, dec.representative)
        assert got == expected
        seen[min(dec.common_dimension, 1)] += 1
    assert seen[0] >= 50 and seen[1] >= 50, seen


def test_subtorus_span_refuses_fractional_directions():
    # int() would truncate these to the span of e1 and e2
    with pytest.raises(ValueError, match="direction entries must be integers"):
        subtorus_span(origin(3), [(1.7, 0, 0), (0, 2.9, 0)])


DIRS2 = [
    (p, q)
    for p in range(-4, 5)
    for q in range(-4, 5)
    if (p, q) != (0, 0) and gcd(p, q) == 1
]


@given(
    st.sampled_from(DIRS2),
    st.sampled_from(DIRS2),
    st.integers(0, 5),
    st.integers(0, 5),
)
@settings(max_examples=150, deadline=None)
def test_component_count_matches_line_intersections(d1, d2, a, b):
    l1 = line_through(origin(2), d1)
    l2 = line_through(point(Fraction(a, 6), Fraction(b, 6)), d2)
    dec = intersect_subtori(line_as_subtorus(l1), line_as_subtorus(l2))
    counted = intersection_count_2d(l1, l2)
    if counted.is_infinite:
        assert dec is not None
        assert dec.component_count == 1
        assert dec.common_dimension == 1
    elif counted.count == 0:
        assert dec is None
    else:
        assert dec is not None
        assert dec.common_dimension == 0
        assert dec.component_count == counted.count


# ---------------------------------------------------------- quotients


def test_quotient_drop_first_coordinate():
    u = subtorus_span(origin(2), [(1, 0)])
    assert quotient_project(point("1/3", "1/4"), u) == point("1/4")


def test_quotient_kills_the_subtorus():
    u = subtorus_span(origin(2), [(1, 1)])
    assert quotient_project(point("1/2", "1/2"), u) == origin(1)
    # pins the deterministic completion
    assert quotient_project(point("1/2", 0), u) == point("1/2")


def test_quotient_requires_through_zero():
    u = subtorus_span(point(0, "1/2"), [(1, 0)])
    with pytest.raises(ValueError, match="pass through 0"):
        quotient_project(origin(2), u)


@given(st.sampled_from(DIRS2), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=150)
def test_quotient_homomorphism_and_kernel(d, a, b, c, e):
    u = subtorus_span(origin(2), [d])
    p = point(Fraction(a, 6), Fraction(b, 6))
    q = point(Fraction(c, 6), Fraction(e, 6))
    total = point(*(x + y for x, y in zip(p.coords, q.coords)))
    lhs = quotient_project(total, u)
    rhs = tuple(
        (x + y) % 1
        for x, y in zip(quotient_project(p, u).coords, quotient_project(q, u).coords)
    )
    assert lhs.coords == rhs
    assert (quotient_project(p, u) == origin(1)) == contains_point(u, p)


# ------------------------------------------------------------- images


def test_image_identity():
    s = subtorus_span(point(0, 0, "1/2"), [(1, 1, 0), (0, 1, 1)])
    assert image_subtorus(s, AffineTorusAuto.identity(3)) == s


def test_image_shear_circle():
    shear = AffineTorusAuto(((1, 0), (1, 1)), origin(2))
    s = image_subtorus(subtorus_span(origin(2), [(1, 0)]), shear)
    assert s == subtorus_span(origin(2), [(1, 1)])


def test_image_shear_plane_t3():
    shear = AffineTorusAuto(((1, 0, 1), (0, 1, 0), (0, 0, 1)), origin(3))
    s = subtorus_span(origin(3), [(1, 1, 0), (0, 1, 1)])
    img = image_subtorus(s, shear)
    assert img.rank == 2
    assert img.lattice.saturated
    for a in range(2):
        for b in range(2):
            pt = point(Fraction(a, 2), Fraction(b, 2), 0)
            mapped = shear.apply(pt)
            assert contains_point(s, pt) == contains_point(img, mapped)


def test_image_rejects_mod_m():
    phi = AffineTorusAuto(((2, 1), (1, 1)), origin(2), modulus=5)
    s = subtorus_span(origin(2), [(1, 0)])
    with pytest.raises(ValueError, match="integral"):
        image_subtorus(s, phi)


@given(st.sampled_from(VECS3), st.sampled_from(VECS3), st.sampled_from(VECS3), st.sampled_from(VECS3))
@settings(max_examples=80, deadline=None)
def test_image_commutes_with_intersection(v1, v2, w1, w2):
    shear = AffineTorusAuto(((1, 2, 0), (0, 1, 0), (1, 0, 1)), point("1/3", 0, "2/3"))
    s1 = subtorus_span(origin(3), [v1, v2])
    s2 = subtorus_span(point(0, "1/2", 0), [w1, w2])
    before = intersect_subtori(s1, s2)
    after = intersect_subtori(image_subtorus(s1, shear), image_subtorus(s2, shear))
    if before is None:
        assert after is None
    else:
        assert after is not None
        assert after.component_count == before.component_count
        assert after.common_dimension == before.common_dimension
        assert image_subtorus(s1, shear).rank == s1.rank

"""Discrete lines, incidence structure, and the exhaustive group search.

The group orders frozen here were independently cross-checked: prime moduli
against the classical affine-group count, and the m=4 excess by re-verifying
every stabilizer permutation with a brute-force line-image test (see
test_m4_stabilizer_is_genuine below, which repeats that audit).
"""

import os
from itertools import product
from math import gcd

import pytest

from torusaffine import collineation
from torusaffine.collineation import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    DiscreteLine,
    affine_group_order,
    build_incidence,
    canonical_generator,
    collineation_group,
    enumerate_discrete_lines,
    index_point,
    is_affine_perm,
    line_points,
    lines_through,
    point_index,
    primitive_lift,
    _divisor_classes,
    _gl2_generators,
    _search,
)
from torusaffine.geometry import RatPoint, line_grid_points, line_through
from fractions import Fraction


# -------------------------------------------------------------- lines


def test_line_counts():
    assert len(list(enumerate_discrete_lines(2, 3))) == 12
    assert len(list(enumerate_discrete_lines(2, 4))) == 24
    assert len(list(enumerate_discrete_lines(2, 5))) == 30


def test_modulus_and_dimension_guards():
    with pytest.raises(ValueError, match="modulus too small"):
        enumerate_discrete_lines(2, 2)
    with pytest.raises(ValueError):
        enumerate_discrete_lines(1, 5)


def test_canonical_generator():
    assert canonical_generator((2, 4), 5) == (1, 2)
    assert canonical_generator((0, 3), 4) == (0, 1)
    assert canonical_generator((3, 1), 5) == (1, 2)


def test_line_canonical_base():
    line = DiscreteLine(2, 5, (0, 1), (1, 3))
    assert line.base == (1, 0)
    assert line.generator == (0, 1)
    assert line.points == tuple((1, k) for k in range(5))


def test_line_rejects_bad_generator():
    with pytest.raises(ValueError):
        DiscreteLine(2, 4, (2, 0), (0, 0))


def test_lines_cover_and_have_m_points():
    for m in (3, 4, 5, 6):
        covered = set()
        for base, gen in enumerate_discrete_lines(2, m):
            points = line_points(base, gen, m)
            assert len(set(points)) == m
            covered.update(points)
        assert len(covered) == m * m


@pytest.mark.parametrize(
    "n,m",
    [(2, m) for m in range(3, 17)]
    + [(2, 27), (4, 3), (4, 4), (5, 3)]
    + [(3, m) for m in range(3, 9)],
)
def test_line_walk_matches_coset_oracle(n, m):
    # oracle: every coset p + <g> over all points p and all generators g
    # with gcd(g, m) = 1, one subgroup <g> at a time
    grid = list(product(range(m), repeat=n))
    subgroups = {
        frozenset(tuple(k * x % m for x in g) for k in range(m))
        for g in grid
        if gcd(*g, m) == 1
    }
    cosets = {
        frozenset(tuple((a + b) % m for a, b in zip(p, h)) for h in sub)
        for sub in subgroups
        for p in grid
    }
    keys = list(enumerate_discrete_lines(n, m))
    walked = [frozenset(line_points(base, gen, m)) for base, gen in keys]
    assert len(set(walked)) == len(walked)
    assert set(walked) == cosets
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # every walked pair is already the canonical form DiscreteLine stores
    for base, gen in keys:
        line = DiscreteLine(n, m, gen, base)
        assert (line.base, line.generator) == (base, gen)


@pytest.mark.parametrize(
    "n,m",
    [(2, m) for m in range(3, 10)] + [(2, 12), (3, 3), (3, 4), (3, 6)],
)
def test_lines_through_matches_incidence_table(n, m):
    inc = build_incidence(n, m)
    for a in range(inc.size):
        for b in range(a + 1, inc.size):
            expected = {inc.lines[li] for li in inc.pair_lines.get((a, b), ())}
            got = lines_through(index_point(a, n, m), index_point(b, n, m), m)
            assert set(got) == expected
            # the search relies on every pair of distinct points sharing a line
            assert expected


def test_lines_through_rejects_equal_points():
    with pytest.raises(ValueError, match="coincide"):
        lines_through((1, 2), (1, 2), 5)
    with pytest.raises(ValueError, match="coincide"):
        lines_through((1, 2), (5, 6), 4)


def test_lines_through_each_point_prime():
    # a prime grid behaves like a finite affine plane: p+1 pencil directions
    for p in (3, 5):
        inc = build_incidence(2, p)
        for idx in range(inc.size):
            assert len(inc.through[idx]) == p + 1


def test_primitive_lift():
    assert gcd(*primitive_lift((3, 0), 5)) == 1
    assert primitive_lift((3, 0), 5)[0] % 5 == 3
    for m in (4, 5, 6, 7):
        for a in range(m):
            for b in range(m):
                if gcd(a, b, m) != 1:
                    continue
                lift = primitive_lift((a, b), m)
                assert gcd(*lift) == 1
                assert lift[0] % m == a and lift[1] % m == b
    # no shift of either coordinate by 0, 1 or 2 times m is primitive here
    lift = primitive_lift((76, 276), 389)
    assert gcd(*lift) == 1
    assert lift[0] % 389 == 76 and lift[1] % 389 == 276
    for gen in [(0, 0, 1), (6, 10, 15), (0, 6, 10, 15)]:
        lift = primitive_lift(gen, 31)
        assert gcd(*lift) == 1
        assert all((x - g) % 31 == 0 for x, g in zip(lift, gen))
    assert primitive_lift((4,), 5) == (-1,)
    assert primitive_lift((6,), 5) == (1,)
    with pytest.raises(ValueError):
        primitive_lift((2,), 5)


def test_lines_are_grid_traces():
    # every discrete line equals the grid trace of its lifted rational line
    for m in (4, 5):
        for base, gen in enumerate_discrete_lines(2, m):
            lift = primitive_lift(gen, m)
            start = RatPoint((Fraction(base[0], m), Fraction(base[1], m)))
            trace = line_grid_points(line_through(start, lift), m)
            got = {tuple(int(c * m) for c in p.coords) for p in trace}
            assert got == set(line_points(base, gen, m))


def test_shared_point_counts():
    # prime grids: two distinct lines share at most one point; composite
    # grids share up to gcd(|det of lifts|, m) points
    expected_max = {3: 1, 4: 2, 5: 1, 6: 3}
    for m, want in expected_max.items():
        lines = [
            (gen, set(line_points(base, gen, m)))
            for base, gen in enumerate_discrete_lines(2, m)
        ]
        top = 0
        for i, (ga, a) in enumerate(lines):
            for gb, b in lines[i + 1 :]:
                shared = len(a & b)
                top = max(top, shared)
                if shared and ga != gb:
                    va = primitive_lift(ga, m)
                    vb = primitive_lift(gb, m)
                    det = va[0] * vb[1] - va[1] * vb[0]
                    assert shared == gcd(abs(det), m)
        assert top == want


# -------------------------------------------------------- group order


def test_affine_group_order_values():
    assert affine_group_order(2, 2) == 24
    assert affine_group_order(2, 3) == 432
    assert affine_group_order(2, 4) == 1536
    assert affine_group_order(2, 5) == 12000
    assert affine_group_order(2, 6) == 10368
    assert affine_group_order(3, 3) == 27 * 11232


def test_is_affine_perm_translation():
    m = 5
    size = m * m
    shift = (1, 2)
    images = [
        point_index(tuple((a + s) % m for a, s in zip(index_point(i, 2, m), shift)), m)
        for i in range(size)
    ]
    phi = is_affine_perm(2, m, images)
    assert phi is not None
    assert phi.matrix == ((1, 0), (0, 1))
    assert phi.translation.coords == (Fraction(1, 5), Fraction(2, 5))


def test_is_affine_perm_scalar():
    m = 5
    images = [
        point_index(tuple(2 * c % m for c in index_point(i, 2, m)), m)
        for i in range(m * m)
    ]
    phi = is_affine_perm(2, m, images)
    assert phi is not None
    assert phi.matrix == ((2, 0), (0, 2))


def test_is_affine_perm_rejects_swap():
    images = list(range(25))
    images[7], images[11] = images[11], images[7]
    assert is_affine_perm(2, 5, images) is None


# ------------------------------------------------------------- search


def test_group_m3():
    got = collineation_group(2, 3)
    assert got.order == 432
    assert got.affine_order == 432
    assert got.index == 1


def test_group_m5_and_worker_independence():
    runs = [collineation_group(2, 5, workers=w) for w in (1, 2)]
    for got in runs:
        assert got.order == 12000
        assert got.affine_order == 12000
        assert got.index == 1
    assert runs[0].nodes == runs[1].nodes
    assert runs[0].generators == runs[1].generators
    # m = 5 has one divisor class and never forks; m = 4 and 6 have 2 and 3
    for m, tasks in ((4, 2), (6, 3)):
        one, two = (collineation_group(2, m, workers=w) for w in (1, 2))
        assert len(one.tasks) == tasks
        assert one.nodes == two.nodes
        assert one.generators == two.generators


def test_group_m4_exceeds_affine():
    got = collineation_group(2, 4)
    assert got.order == 6144
    assert got.affine_order == 1536
    assert got.index == 4


def test_m4_stabilizer_is_genuine():
    # independent audit of the surprising index: every stabilizer element
    # must map every line onto a line (checked by raw set images), and the
    # affine ones among them must number |GL_2(Z/4)| = 96
    got = collineation_group(2, 4)
    inc = build_incidence(2, 4)
    line_sets = {frozenset(point_index(p, 4) for p in line.points) for line in inc.lines}
    stabilizer = list(got.stabilizer())
    assert len(stabilizer) == 6144 // 16
    affine_count = 0
    for perm in stabilizer:
        assert perm[0] == 0
        for line in inc.lines:
            image = frozenset(perm[point_index(p, 4)] for p in line.points)
            assert image in line_sets
        if is_affine_perm(2, 4, perm) is not None:
            affine_count += 1
    assert affine_count == 96


def test_group_generators_are_collineations_m3():
    # m = 5 has 480 stabilizer elements, every one of them audited
    for m, stabilizer_size in ((3, 48), (5, 480)):
        got = collineation_group(2, m)
        inc = build_incidence(2, m)
        line_sets = {
            frozenset(point_index(p, m) for p in line.points) for line in inc.lines
        }
        stabilizer = list(got.stabilizer())
        assert len(stabilizer) == stabilizer_size
        for perm in got.generators + tuple(stabilizer):
            assert sorted(perm) == list(range(m * m))
            for line in inc.lines:
                image = frozenset(perm[point_index(p, m)] for p in line.points)
                assert image in line_sets


@pytest.mark.parametrize("m", [3, 4, 5])
def test_stabilizer_matches_search_from_every_image_of_e1(m):
    # oracle: one unreduced search task per nonzero image f of e1
    inc = build_incidence(2, m)
    oracle = set()
    for first in range(1, m * m):
        oracle.update(_search(inc, first, DEFAULT_NODE_BUDGET)[0])
    got = collineation_group(2, m)
    stabilizer = list(got.stabilizer())
    assert len(stabilizer) == len(oracle) == got.order // (m * m)
    assert set(stabilizer) == oracle
    assert sum(weight for _, weight in _divisor_classes(2, m)) == m * m - 1


def test_linear_generators_reach_every_determinant():
    # the transvections generate SL_2(Z/m); the determinants must generate
    # the units mod m for the set to generate GL_2(Z/m)
    for m in (3, 4, 6, 7, 8, 15):
        dets = [a * d - b * c for (a, b), (c, d) in _gl2_generators(m)]
        reached = [1]
        for x in reached:
            reached += {x * y % m for y in dets} - set(reached)
        assert sorted(reached) == [u for u in range(1, m) if gcd(u, m) == 1]


def test_budget_is_enforced():
    # the budget caps all tasks together: the search stops at node 101
    with pytest.raises(BudgetExceededError) as err:
        collineation_group(2, 5, budget=100)
    assert err.value.nodes == 101


def test_workers_are_clamped_to_cpu_count(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return map(fn, tasks)

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(collineation, "get_context", lambda method: Context)
    got = collineation_group(2, 3, workers=10**6)
    assert got.order == 432
    assert all(size <= (os.cpu_count() or 1) for size in sizes)
    # m = 4 has two divisor classes, so the pool is built, at most 2 wide
    got = collineation_group(2, 4, workers=10**6)
    assert got.order == 6144
    assert sizes
    assert all(size <= min(2, os.cpu_count() or 1) for size in sizes)


def test_search_requires_dimension_two():
    with pytest.raises(ValueError, match="dimension 2"):
        collineation_group(3, 3)

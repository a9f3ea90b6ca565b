"""Discrete lines, incidence structure, and the exhaustive group search.

The group orders frozen here were independently cross-checked: prime moduli
against the classical affine-group count, and the m=4 excess by re-verifying
every stabilizer permutation with a brute-force line-image test (see
test_m4_stabilizer_is_genuine below, which repeats that audit).
"""

import tracemalloc
from itertools import product
from math import gcd

import pytest

from torusaffine import collineation
from torusaffine.collineation import (
    BudgetExceededError,
    affine_group_order,
    build_incidence,
    collineation_group,
    _search_base,
)
from torusaffine.geometry import RatPoint, line_grid_points, line_through
from torusaffine.grid import (
    DiscreteLine,
    canonical_generator,
    enumerate_discrete_lines,
    index_point,
    is_affine_perm,
    line_indices,
    line_points,
    lines_through,
    point_index,
    primitive_lift,
    _generators,
)
from fractions import Fraction


# -------------------------------------------------------------- lines


def test_line_counts():
    assert len(list(enumerate_discrete_lines(2, 3))) == 12
    assert len(list(enumerate_discrete_lines(2, 4))) == 24
    assert len(list(enumerate_discrete_lines(2, 5))) == 30


def test_modulus_and_dimension_guards():
    with pytest.raises(ValueError, match="modulus too small"):
        enumerate_discrete_lines(2, 2)
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        enumerate_discrete_lines(1, 5)
    # the dimension is checked first, as GridMap checks it
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        enumerate_discrete_lines(1, 2)


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
    [(2, m) for m in range(3, 33)]
    + [(3, m) for m in range(3, 13)]
    + [(4, 3), (4, 4), (4, 6), (5, 3)],
)
def test_line_walk_matches_pairwise_base_test(n, m):
    # the walk's per-generator base boxes against the pairwise definition:
    # p is the base of p + <g> when, with the earlier coordinates held, no
    # multiple of g lowers the next one
    def is_base(p, g):
        step = 1
        for x, y in zip(p, g):
            c = gcd(step * y, m)
            if x >= c:
                return False
            step *= m // c
        return True

    gens = _generators(n, m)
    expected = [
        (p, g) for p in product(range(m), repeat=n) for g in gens if is_base(p, g)
    ]
    assert list(enumerate_discrete_lines(n, m)) == expected


@pytest.mark.parametrize(
    "n,m",
    [(2, m) for m in range(3, 10)] + [(2, 12), (3, 3), (3, 4), (3, 6)],
)
def test_lines_through_matches_incidence_table(n, m):
    inc = build_incidence(n, m)
    for a in range(inc.size):
        for b in range(a + 1, inc.size):
            expected = {
                DiscreteLine(n, m, inc.lines[li][1], inc.lines[li][0])
                for li in inc.through[a]
                if inc.masks[li] >> b & 1
            }
            got = lines_through(index_point(a, n, m), index_point(b, n, m), m)
            assert set(got) == expected
            # the search relies on every pair of distinct points sharing a line
            assert expected


def test_lines_through_rejects_equal_points():
    with pytest.raises(ValueError, match="coincide"):
        lines_through((1, 2), (1, 2), 5)
    with pytest.raises(ValueError, match="coincide"):
        lines_through((1, 2), (5, 6), 4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        lines_through((0, 0), (1, 2, 3), 5)


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


def test_is_affine_perm_refuses_singular_table():
    # x -> 2x mod 4 matches its own table, but its determinant is no unit
    m = 4
    images = [
        point_index(tuple(2 * c % m for c in index_point(i, 2, m)), m)
        for i in range(m * m)
    ]
    assert is_affine_perm(2, m, images) is None


# ------------------------------------------------------------- search


def test_group_m3():
    got = collineation_group(2, 3)
    assert got.order == 432
    assert got.affine_order == 432
    assert got.index == 1


def test_group_m5_and_worker_independence():
    got = collineation_group(2, 5)
    assert (got.order, got.affine_order, got.index) == (12000, 12000, 1)
    # workers is accepted and changes nothing
    for m in (4, 5, 6):
        one = collineation_group(2, m)
        for workers in (2, 10**6):
            assert collineation_group(2, m, workers=workers) == one


def test_group_m4_exceeds_affine():
    got = collineation_group(2, 4)
    assert got.order == 6144
    assert got.affine_order == 1536
    assert got.index == 4


@pytest.mark.parametrize(
    "m,order,index",
    [
        (7, 98784, 1),
        (8, 25165824, 256),
        (9, 8503056, 27),
        (12, 2654208, 4),
        (13, 4429152, 1),
        (16, 6442450944, 1024),
        (25, 4687500000, 25),
        (27, 55788550416, 243),
    ],
)
def test_census_orders(m, order, index):
    got = collineation_group(2, m)
    assert (got.order, got.index) == (order, index)
    assert got.affine_order == affine_group_order(2, m) == order // index


def test_order_at_12_is_the_crt_product():
    # a line of (Z/12)^2 is the product of its reductions mod 3 and mod 4
    orders = {m: collineation_group(2, m).order for m in (3, 4, 12)}
    assert orders[12] == orders[3] * orders[4]


def test_orders_at_18_20_and_24_are_crt_products():
    got = {m: collineation_group(2, m) for m in (3, 4, 5, 8, 9, 18, 20, 24)}
    assert [(got[m].order, got[m].index) for m in (18, 20, 24)] == [
        (204073344, 27), (73728000, 4), (10871635968, 256)
    ]
    assert got[20].order == got[4].order * got[5].order
    assert got[24].order == got[3].order * got[8].order
    # every two of the 4 points of the 2-grid form a line, so G(2) is Sym(4),
    # of order 4! = 24; the search refuses m = 2
    assert got[18].order == 24 * got[9].order


@pytest.mark.parametrize("m,count", [(3, 1), (4, 4), (5, 1), (8, 256), (9, 27)])
def test_normalized_maps_number_the_index(m, count):
    # every collineation is one affine map after one normalized map, which
    # fixes 0, e1 and e2
    got = collineation_group(2, m)
    assert got.base[:3] == (point_index((1, 0), m), point_index((0, 1), m), m + 1)
    assert sorted(got.base) == list(range(1, m * m))
    normalized = list(got.stabilizer(2))
    assert len(normalized) == len(set(normalized)) == count == got.index
    for f in normalized:
        assert [f[p] for p in (0, *got.base[:2])] == [0, *got.base[:2]]


@pytest.mark.parametrize(
    "m,p,normalized_count,reduced_count,kernel_order,dim",
    [(4, 2, 4, 1, 4, 2), (8, 2, 256, 4, 64, 6), (9, 3, 27, 1, 27, 3),
     (16, 2, 1024, 16, 64, 6)],
)
def test_reduction_mod_m_over_p_and_its_kernel(
    m, p, normalized_count, reduced_count, kernel_order, dim
):
    # At m = p^k, with q = m/p: every normalized map (fixing 0, e1, e2) is
    # well defined mod q and reduces to a normalized map there.  The maps
    # that reduce to the identity are x -> x + q·D(x mod q), and their
    # fields D form an F_p-space.  At q = 2 a bijection fixing three of the
    # four points is the identity, the only normalized map.
    q = m // p
    normalized = list(collineation_group(2, m).stabilizer(2))
    assert len(normalized) == normalized_count
    identity = tuple(range(q * q))
    lower = set(collineation_group(2, q).stabilizer(2)) if q > 2 else {identity}
    points = [index_point(i, 2, m) for i in range(m * m)]
    reduced, kernel = set(), []
    for f in normalized:
        red = [None] * (q * q)
        for x, i in zip(points, f):
            j, image = point_index(x, q), point_index(index_point(i, 2, m), q)
            assert red[j] in (None, image)
            red[j] = image
        assert tuple(red) in lower
        reduced.add(tuple(red))
        if tuple(red) != identity:
            continue
        field = [None] * (q * q)
        for x, i in zip(points, f):
            d = tuple((y - c) % m // q for c, y in zip(x, index_point(i, 2, m)))
            assert field[point_index(x, q)] in (None, d)
            field[point_index(x, q)] = d
        kernel.append(tuple(field))
    assert len(reduced) == reduced_count
    fields = set(kernel)  # a field determines its map, so none repeats
    assert len(kernel) == len(fields) == kernel_order == p**dim
    for a, b in product(fields, repeat=2):
        total = tuple(
            tuple((u + v) % p for u, v in zip(da, db)) for da, db in zip(a, b)
        )
        assert total in fields


def test_m4_stabilizer_is_genuine():
    # independent audit of the surprising index: every stabilizer element
    # must map every line onto a line (checked by raw set images), and the
    # affine ones among them must number |GL_2(Z/4)| = 96
    got = collineation_group(2, 4)
    inc = build_incidence(2, 4)
    line_sets = {frozenset(line_indices(base, g, 4)) for base, g in inc.lines}
    stabilizer = list(got.stabilizer())
    assert len(stabilizer) == 6144 // 16
    affine_count = 0
    for perm in stabilizer:
        assert perm[0] == 0
        for base, g in inc.lines:
            image = frozenset(perm[i] for i in line_indices(base, g, 4))
            assert image in line_sets
        if is_affine_perm(2, 4, perm) is not None:
            affine_count += 1
    assert affine_count == 96


def test_group_generators_are_collineations_m3():
    # m = 5 has 480 stabilizer elements, every one of them audited
    for m, stabilizer_size in ((3, 48), (5, 480)):
        got = collineation_group(2, m)
        inc = build_incidence(2, m)
        line_sets = {frozenset(line_indices(base, g, m)) for base, g in inc.lines}
        stabilizer = list(got.stabilizer())
        assert len(stabilizer) == stabilizer_size
        for perm in got.generators + tuple(stabilizer):
            assert sorted(perm) == list(range(m * m))
            for base, g in inc.lines:
                image = frozenset(perm[i] for i in line_indices(base, g, m))
                assert image in line_sets


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_stabilizer_yields_each_collineation_fixing_0_once(m):
    got = collineation_group(2, m)
    line_sets = {
        frozenset(line_indices(base, g, m)) for base, g in build_incidence(2, m).lines
    }
    stabilizer = list(got.stabilizer())
    assert len(stabilizer) == len(set(stabilizer)) == got.order // (m * m)
    for perm in stabilizer:
        assert perm[0] == 0 and sorted(perm) == list(range(m * m))
        assert all(frozenset(perm[i] for i in line) in line_sets for line in line_sets)


def every_collineation_fixing_0(m):
    """Oracle: plain backtracking over every image of every point, with no
    group theory.  A point's candidates lie, for each line through it, on
    every line that holds the images already placed on that line."""
    inc = build_incidence(2, m)
    size, masks = inc.size, inc.masks
    line_imgs = [mask & 1 for mask in masks]
    img = [0] * size
    found = []

    def candidates(p, used):
        allowed = (1 << size) - 1 & ~used
        for li in inc.through[p]:
            got = line_imgs[li]
            rest = got & (got - 1)
            if rest:
                a = (got & -got).bit_length() - 1
                b = (rest & -rest).bit_length() - 1
                union = 0
                for other in [li for li in inc.through[a] if masks[li] >> b & 1]:
                    if got & ~masks[other] == 0:
                        union |= masks[other]
                allowed &= union
        return allowed

    def dfs(order, used):
        if not order:
            found.append(tuple(img))
            return
        p = order[0]
        allowed = candidates(p, used)
        for v in range(size):
            if allowed >> v & 1:
                img[p] = v
                for li in inc.through[p]:
                    line_imgs[li] |= 1 << v
                dfs(order[1:], used | 1 << v)
                for li in inc.through[p]:
                    line_imgs[li] ^= 1 << v

    dfs(_search_base(inc), 1)
    return found


@pytest.mark.parametrize("m", [3, 4, 5])
def test_stabilizer_matches_search_from_every_image_of_e1(m):
    oracle = every_collineation_fixing_0(m)
    got = collineation_group(2, m)
    stabilizer = list(got.stabilizer())
    assert len(stabilizer) == len(oracle) == got.order // (m * m)
    assert set(stabilizer) == set(oracle)


def test_budget_is_enforced():
    # the budget caps every node: the search stops at node 101
    with pytest.raises(BudgetExceededError) as err:
        collineation_group(2, 5, budget=100)
    assert err.value.nodes == 101
    # a budget of exactly the search's nodes is enough
    nodes = collineation_group(2, 5).nodes
    assert collineation_group(2, 5, budget=nodes).nodes == nodes
    with pytest.raises(BudgetExceededError) as err:
        collineation_group(2, 5, budget=nodes - 1)
    assert err.value.nodes == nodes


def test_two_workers_stop_at_the_budget_ceiling():
    # one ceiling for any worker count: m = 6 stops at node 151 of 192
    for workers in (1, 2):
        with pytest.raises(BudgetExceededError) as err:
            collineation_group(2, 6, workers=workers, budget=150)
        assert err.value.nodes == 151


def test_search_requires_dimension_two():
    with pytest.raises(ValueError, match="dimension 2"):
        collineation_group(3, 3)


def test_search_checks_the_grid_size_rule_first():
    # the grid module's rule, ahead of the budget check and the incidence
    # bound, and before any table is built
    before = build_incidence.cache_info()
    for m in (2, 1, 0, -3, -10**6):
        for budget in (None, -1):
            with pytest.raises(ValueError, match="^modulus too small$"):
                collineation_group(2, m, budget=budget)
    assert build_incidence.cache_info() == before


def test_search_refuses_a_table_over_a_million_incidences():
    # m = 78 = 2·3·13: 6084 points on 3·4·14 = 168 lines each
    with pytest.raises(ValueError, match="point-line incidences"):
        collineation_group(2, 78)


def test_incidence_table_holds_no_point_pairs():
    # m = 32 has 523776 point pairs but 1024 · 48 point-line incidences
    build_incidence.cache_clear()
    tracemalloc.start()
    try:
        inc = build_incidence(2, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        build_incidence.cache_clear()
    assert peak < 16 * 2**20
    assert len(inc.through[0]) == 48
    # through[a][j] is the line through a along the j-th generator, the
    # order in which the search finds the lines through two points
    for m in (4, 5, 6, 12):
        inc = build_incidence(2, m)
        gens = _generators(2, m)
        for a, lines in enumerate(inc.through):
            assert len(lines) == len(gens)
            for j, li in enumerate(lines):
                assert inc.lines[li][1] == gens[j] and inc.masks[li] >> a & 1

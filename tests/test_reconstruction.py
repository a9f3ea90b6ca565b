"""Recovering an affine map from its grid action, or refuting one.

The dichotomy exercised here: at prime modulus every grid bijection is
either affine or breaks some line on a witness triple; at composite
modulus there is a third outcome -- line-preserving but non-affine --
and the m=4 stabilizer computed by the exhaustive search provides real
instances of it.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusaffine.affine import AffineTorusAuto
from torusaffine.cli import generate_map
from torusaffine.collineation import collineation_group
from torusaffine.geometry import is_block
from torusaffine.grid import (
    DiscreteLine,
    _units,
    affine_table,
    canonical_generator,
    enumerate_discrete_lines,
    is_affine_perm,
    line_indices,
    line_points,
    point_index,
)
from torusaffine.intmat import det, identity
from torusaffine.ratpoint import RatPoint, origin
from torusaffine.reconstruction import (
    GridMap,
    NonaffineCollineationError,
    PropertyReport,
    Witness,
    check_paper_properties,
    infer_affine,
    verify_line_preserving,
    _blocks_preserved,
    _direction_normalizer,
    _image_line,
)


def grid_point(*nums, m):
    return RatPoint(tuple(Fraction(x, m) for x in nums))


def identity_map(n, m):
    return GridMap(n, m, tuple(range(m**n)))


# ----------------------------------------------------------- GridMap


def test_gridmap_validation():
    with pytest.raises(ValueError, match="wrong length"):
        GridMap(2, 5, (0, 1, 2))
    with pytest.raises(ValueError, match="not a permutation"):
        GridMap(2, 3, (0,) * 9)
    with pytest.raises(ValueError, match="modulus too small"):
        GridMap(2, 2, tuple(range(4)))


def test_image_of_refuses_points_of_another_dimension():
    f = identity_map(2, 3)
    for p in ((1,), (1, 2, 2)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            f.image_of(p)


def test_from_affine_shear():
    phi = AffineTorusAuto(((1, 1), (0, 1)), grid_point(0, 0, m=4), 4)
    f = GridMap.from_affine(phi, 2, 4)
    assert f.image_of((1, 1)) == (2, 1)
    assert f.image_of((0, 3)) == (3, 3)


def test_from_affine_rejects_off_grid_translation():
    phi = AffineTorusAuto(((1, 0), (0, 1)), grid_point(1, 0, m=3))
    with pytest.raises(ValueError, match="does not preserve this grid"):
        GridMap.from_affine(phi, 2, 5)


# ------------------------------------------------------ infer_affine


def test_infer_identity():
    phi = infer_affine(identity_map(2, 5))
    assert isinstance(phi, AffineTorusAuto)
    assert phi.matrix == ((1, 0), (0, 1))
    assert phi.translation == grid_point(0, 0, m=5)


def test_infer_shear_round_trip():
    phi = AffineTorusAuto(((1, 1), (0, 1)), grid_point(1, 2, m=5), 5)
    assert infer_affine(GridMap.from_affine(phi, 2, 5)) == phi


def test_infer_negation_uses_sign_flip():
    phi = AffineTorusAuto(((-1, 0), (0, -1)), grid_point(0, 0, m=7), 7)
    got = infer_affine(GridMap.from_affine(phi, 2, 7))
    assert got.matrix == ((-1, 0), (0, -1))


def test_infer_swapped_points_yields_witness():
    images = list(range(25))
    a, b = 1 * 5 + 1, 2 * 5 + 1  # swap (1,1) and (2,1)
    images[a], images[b] = images[b], images[a]
    f = GridMap(2, 5, tuple(images))
    witness = infer_affine(f)
    assert isinstance(witness, Witness)
    assert witness.validate(f)
    assert witness.line.generator == (1, 1)
    assert witness.line.base == (0, 0)
    assert (1, 1) in witness.points


def test_witness_validate_rejects_collinear_images():
    # at m = 6 the points 0 and (3, 0) lie on several lines together; the
    # identity keeps the triple on one of them, so it certifies nothing
    f = identity_map(2, 6)
    line = DiscreteLine(2, 6, (1, 2), (0, 0))
    assert not Witness(((0, 0), (3, 0), (1, 2)), line).validate(f)
    # nor does a triple off the line or one with a repeated point
    assert not Witness(((0, 0), (3, 0), (1, 0)), line).validate(f)
    assert not Witness(((0, 0), (0, 0), (1, 2)), line).validate(f)
    # nor a certificate read on another grid: no line of the 7-grid holds
    # these three points of a 5-grid line
    other = Witness(((0, 0), (1, 2), (3, 1)), DiscreteLine(2, 5, (1, 2), (0, 0)))
    assert not other.validate(generate_map(2, 7, 0, "random"))


def test_verify_line_preserving_identity():
    assert verify_line_preserving(identity_map(2, 5)) is True


def test_line_whose_image_has_no_unit_step():
    # the line x = 0 of the 4-grid goes onto 2 * (Z/4)^2, where no two
    # images differ by a unit step, so its image is no line; the other
    # points fill the remaining indices in order
    line_images = [0, 2, 8, 10]
    rest = [i for i in range(16) if i not in line_images]
    f = GridMap(2, 4, tuple(line_images + rest))
    witness = verify_line_preserving(f)
    assert witness == Witness(
        ((0, 0), (0, 1), (0, 2)), DiscreteLine(2, 4, (0, 1), (0, 0))
    )
    assert witness.validate(f)
    with pytest.raises(ValueError, match="map does not preserve lines"):
        check_paper_properties(f)


@pytest.mark.parametrize("n,m", [(2, 4), (2, 6), (2, 8), (2, 9), (3, 4)])
def test_collinear_sets_are_at_most_lines(n, m):
    """The lemma behind _line_witness, by exhaustion: no set whose point
    triples are all collinear has more than m points, and one with m points
    is a line.  Lines are built here from their definition, a + {t g} with
    gcd(g, m) = 1; by translation the sets searched all contain 0."""
    pts = list(product(range(m), repeat=n))
    index = {p: i for i, p in enumerate(pts)}
    lines0 = set()  # the lines through 0, as bitmasks
    for g in pts:
        if gcd(*g, m) == 1:
            lines0.add(sum(1 << index[tuple(t * x % m for x in g)] for t in range(m)))
    # third[a][b]: the points c with a, b, c on one line, found by
    # translating the lines through 0 and b - a to a
    third = [[0] * len(pts) for _ in pts]
    for a, pa in enumerate(pts):
        for b, pb in enumerate(pts):
            d = index[tuple((y - x) % m for x, y in zip(pa, pb))]
            union = 0
            for line in lines0:
                if line >> d & 1:
                    union |= line
            third[a][b] = sum(
                1 << index[tuple((x + y) % m for x, y in zip(pa, pts[c]))]
                for c in range(len(pts)) if union >> c & 1
            )
    full = []

    def grow(chosen, mask, cands):
        assert len(chosen) <= m
        if len(chosen) == m:
            full.append(mask)
        while cands:
            c = cands.bit_length() - 1
            cands &= ~(1 << c)
            keep = cands
            for x in chosen:
                keep &= third[x][c]
            grow(chosen + [c], mask | 1 << c, keep)

    grow([0], 1, (1 << len(pts)) - 2)
    assert set(full) == lines0


@pytest.mark.parametrize("n,m", [(2, 6), (3, 4), (4, 3)])
def test_line_indices_match_line_points(n, m):
    for base, gen in enumerate_discrete_lines(n, m):
        points = line_points(base, gen, m)
        assert line_indices(base, gen, m) == [point_index(p, m) for p in points]


def test_infer_n3_round_trip():
    phi = AffineTorusAuto(
        ((0, 1, 0), (0, 0, 1), (1, 0, 0)), grid_point(1, 0, 2, m=3), 3
    )
    assert infer_affine(GridMap.from_affine(phi, 3, 3)) == phi


BALANCED_M5 = [
    ((a, b), (c, d))
    for a in range(-2, 3)
    for b in range(-2, 3)
    for c in range(-2, 3)
    for d in range(-2, 3)
    if (a * d - b * c) % 5 != 0
]
BALANCED_M8 = [
    ((a, b), (c, d))
    for a in range(-3, 5)
    for b in range(-3, 5)
    for c in range(-3, 5)
    for d in range(-3, 5)
    if (a * d - b * c) % 2 != 0
]


@given(
    matrix=st.sampled_from(BALANCED_M5),
    shift=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_round_trip_m5(matrix, shift):
    phi = AffineTorusAuto(matrix, grid_point(*shift, m=5), 5)
    assert infer_affine(GridMap.from_affine(phi, 2, 5)) == phi


@settings(max_examples=40)
@given(
    matrix=st.sampled_from(BALANCED_M8),
    shift=st.tuples(st.integers(0, 7), st.integers(0, 7)),
)
def test_round_trip_m8(matrix, shift):
    phi = AffineTorusAuto(matrix, grid_point(*shift, m=8), 8)
    assert infer_affine(GridMap.from_affine(phi, 2, 8)) == phi


@settings(max_examples=60)
@given(perm=st.permutations(tuple(range(25))))
def test_prime_modulus_dichotomy(perm):
    # at m=5 the outcome is always affine-or-witness, never the
    # composite-only third case
    f = GridMap(2, 5, tuple(perm))
    verdict = infer_affine(f)
    if isinstance(verdict, AffineTorusAuto):
        assert GridMap.from_affine(verdict, 2, 5) == f
    else:
        assert isinstance(verdict, Witness)
        assert verdict.validate(f)


# --------------------------------------- composite-modulus exception


def nonaffine_m4_map():
    summary = collineation_group(2, 4)
    for perm in summary.stabilizer():
        if is_affine_perm(2, 4, perm) is None:
            return GridMap(2, 4, perm)
    raise AssertionError("search reported no non-affine stabilizer element")


def test_nonaffine_collineation_raises():
    f = nonaffine_m4_map()
    assert verify_line_preserving(f) is True
    with pytest.raises(NonaffineCollineationError):
        infer_affine(f)


def test_nonaffine_collineation_report():
    # measured: every non-affine m=4 stabilizer element breaks parallelism
    f = nonaffine_m4_map()
    report = check_paper_properties(f)
    assert report == PropertyReport(False, False, None)
    # constructive confirmation: some pair of parallel lines gets mapped to
    # lines with different direction classes
    from torusaffine.collineation import build_incidence
    from torusaffine.grid import line_indices

    inc = build_incidence(2, 4)
    by_mask = {mask: li for li, mask in enumerate(inc.masks)}
    image_gens = {}
    for base, g in inc.lines:
        mask = 0
        for i in line_indices(base, g, 4):
            mask |= 1 << f.images[i]
        image_gens.setdefault(g, set()).add(inc.lines[by_mask[mask]][1])
    assert any(len(gens) > 1 for gens in image_gens.values())


# --------------------------------------------------- property report


def test_report_identity():
    assert check_paper_properties(identity_map(2, 5)) == PropertyReport(
        True, True, None
    )


def test_report_affine_mod7():
    phi = AffineTorusAuto(((1, 1), (0, 1)), grid_point(3, 1, m=7), 7)
    report = check_paper_properties(GridMap.from_affine(phi, 2, 7))
    assert report == PropertyReport(True, True, None)


def hyperplane_cosets(n, p):
    """Every coset of a rank n-1 subgroup of (Z/p)^n, as a frozenset of flat
    indices: the level sets of each nonzero linear functional."""
    points = list(product(range(p), repeat=n))
    return {
        frozenset(
            i for i, x in enumerate(points)
            if sum(a * c for a, c in zip(normal, x)) % p == level
        )
        for normal in points[1:]
        for level in range(p)
    }


@pytest.mark.parametrize("n,m", [(3, 3), (3, 5), (4, 3)])
def test_report_prime_modulus(n, m):
    assert check_paper_properties(identity_map(n, m)) == PropertyReport(
        True, None, True
    )
    cosets = hyperplane_cosets(n, m)
    for seed in range(3):
        f = generate_map(n, m, seed=seed, kind="affine")
        assert check_paper_properties(f) == PropertyReport(True, None, True)
        images = {frozenset(f.images[i] for i in coset) for coset in cosets}
        assert images == cosets
        g = generate_map(n, m, seed=seed, kind="perturbed")
        with pytest.raises(ValueError, match="does not preserve lines"):
            check_paper_properties(g)


def test_report_rejects_line_breaker():
    images = list(range(25))
    images[6], images[11] = images[11], images[6]
    with pytest.raises(ValueError, match="does not preserve lines"):
        check_paper_properties(GridMap(2, 5, tuple(images)))


# ------------------------------------- the block walk against its definition


def translated_to_zero(f):
    """f followed by the translation that takes f(0) back to 0."""
    m = f.m
    back = RatPoint(tuple(Fraction(-c, m) for c in f.image_of((0, 0))))
    t = affine_table(AffineTorusAuto(identity(2), back, m), 2, m)
    return GridMap(2, m, tuple(t[i] for i in f.images))


@cache
def grid_block(m, corners):
    return is_block(*(grid_point(*c, m=m) for c in corners))


def reference_blocks_preserved(f):
    """The block test by its definition: move f(0) back to 0, divide out the
    direction normalizer, then send every rectangle of the m^4 that
    `is_block` accepts on RatPoints through the map and ask `is_block`
    again."""
    m = f.m
    g = translated_to_zero(f)
    matrix = _direction_normalizer(g)
    if matrix is None:
        return False
    t = affine_table(AffineTorusAuto(matrix, origin(2), m).inverse(), 2, m)
    h = GridMap(2, m, tuple(t[i] for i in g.images))
    for x0, x1, y0, y1 in product(range(m), repeat=4):
        if x0 >= x1 or y0 == y1:
            continue
        corners = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
        mapped = [h.image_of(c) for c in corners]
        if grid_block(m, frozenset(corners)) and not grid_block(m, frozenset(mapped)):
            return False
    return True


def block_walk_matching_reference(f):
    """The walk's verdict on f, asserted equal to the reference's."""
    # a translation changes no generator, so f and f moved back to 0 share
    # their normalizer
    assert _direction_normalizer(f) == _direction_normalizer(translated_to_zero(f))
    verdict = _blocks_preserved(f)
    assert verdict == reference_blocks_preserved(f)
    return verdict


def random_affine_table(rng, m):
    while True:
        a = tuple(tuple(rng.randrange(m) for _ in range(2)) for _ in range(2))
        if gcd(det(a), m) == 1:
            break
    b = grid_point(rng.randrange(m), rng.randrange(m), m=m)
    return affine_table(AffineTorusAuto(a, b, m), 2, m)


def m4_stabilizer_maps():
    """Every collineation fixing 0 at m = 4, the exotic ones included, each
    followed by every translation of the grid."""
    m = 4
    shifts = [
        affine_table(AffineTorusAuto(identity(2), grid_point(a, b, m=m), m), 2, m)
        for a, b in product(range(m), repeat=2)
    ]
    for perm in collineation_group(2, m).stabilizer():
        for t in shifts:
            yield GridMap(2, m, tuple(t[i] for i in perm))


def test_block_walk_matches_definition_on_m4_stabilizer():
    verdicts = {block_walk_matching_reference(f) for f in m4_stabilizer_maps()}
    assert verdicts == {True, False}


def unit_search_normalizer(f):
    """The direction normalizer by search: the first pair of units (u1, u2)
    whose columns u1 gh, u2 gv send the diagonal and the antidiagonal to the
    images' subgroups too."""
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


def test_direction_normalizer_matches_unit_search():
    maps = list(m4_stabilizer_maps())
    for m in range(3, 13):
        rng = random.Random(m)
        for _ in range(20):
            images = list(random_affine_table(rng, m))
            swapped = list(images)
            i, j = rng.sample(range(m * m), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            shuffled = rng.sample(range(m * m), m * m)
            maps += [GridMap(2, m, tuple(t)) for t in (images, swapped, shuffled)]
    found = set()
    for f in maps:
        matrix = _direction_normalizer(f)
        assert matrix == unit_search_normalizer(f)
        found.add(matrix is None)
    assert found == {True, False}


@pytest.mark.parametrize("m", range(3, 9))
def test_block_walk_matches_definition_on_affine_and_swapped_maps(m):
    # a swap of two points off the four block families through 0 keeps the
    # normalizer, so the walk itself has to judge the blocks (from m = 4 on;
    # at m = 3 those four lines cover the grid)
    rng = random.Random(m)
    off = [
        x * m + y
        for x, y in product(range(1, m), repeat=2)
        if (x - y) % m and (x + y) % m
    ]
    for _ in range(8):
        images = list(random_affine_table(rng, m))
        f = GridMap(2, m, tuple(images))
        assert block_walk_matching_reference(f)
        for pool in (range(m * m), off):
            if len(pool) < 2:
                continue
            i, j = rng.sample(pool, 2)
            swapped = list(images)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            g = GridMap(2, m, tuple(swapped))
            block_walk_matching_reference(g)
            if pool is off:
                assert _direction_normalizer(g) == _direction_normalizer(f)

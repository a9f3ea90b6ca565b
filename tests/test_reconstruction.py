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
    affine_table,
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


def test_block_walk_matches_definition_on_m4_stabilizer():
    # every collineation fixing 0 at m = 4, the exotic ones included, and
    # each of them followed by every translation of the grid
    m = 4
    shifts = [
        affine_table(AffineTorusAuto(identity(2), grid_point(a, b, m=m), m), 2, m)
        for a, b in product(range(m), repeat=2)
    ]
    verdicts = set()
    for perm in collineation_group(2, m).stabilizer():
        for t in shifts:
            f = GridMap(2, m, tuple(t[i] for i in perm))
            verdicts.add(block_walk_matching_reference(f))
    assert verdicts == {True, False}


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

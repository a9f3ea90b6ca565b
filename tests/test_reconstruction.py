"""Recovering an affine map from its grid action, or refuting one.

The dichotomy exercised here: at prime modulus every grid bijection is
either affine or breaks some line on a witness triple; at composite
modulus there is a third outcome -- line-preserving but non-affine --
and the m=4 stabilizer computed by the exhaustive search provides real
instances of it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusaffine.affine import AffineTorusAuto
from torusaffine.collineation import (
    DiscreteLine,
    collineation_group,
    is_affine_perm,
)
from torusaffine.geometry import RatPoint
from torusaffine.reconstruction import (
    GridMap,
    NonaffineCollineationError,
    PropertyReport,
    Witness,
    check_paper_properties,
    infer_affine,
    normalize_translation,
    verify_line_preserving,
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


def test_normalize_translation():
    phi = AffineTorusAuto(((1, 1), (0, 1)), grid_point(1, 2, m=5), 5)
    f = GridMap.from_affine(phi, 2, 5)
    g, b = normalize_translation(f)
    assert b == grid_point(1, 2, m=5)
    assert g.images[0] == 0
    linear = AffineTorusAuto(((1, 1), (0, 1)), grid_point(0, 0, m=5), 5)
    assert g == GridMap.from_affine(linear, 2, 5)


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


def test_verify_line_preserving_identity():
    assert verify_line_preserving(identity_map(2, 5)) is True


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
    from torusaffine.collineation import build_incidence, point_index

    inc = build_incidence(2, 4)
    by_mask = {mask: li for li, mask in enumerate(inc.masks)}
    image_gens = {}
    for li, line in enumerate(inc.lines):
        mask = 0
        for p in line.points:
            mask |= 1 << f.images[point_index(p, 4)]
        image_gens.setdefault(line.generator, set()).add(
            inc.lines[by_mask[mask]].generator
        )
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


def test_report_identity_n3():
    assert check_paper_properties(identity_map(3, 3)) == PropertyReport(
        True, None, True
    )


def test_report_rejects_line_breaker():
    images = list(range(25))
    images[6], images[11] = images[11], images[6]
    with pytest.raises(ValueError, match="does not preserve lines"):
        check_paper_properties(GridMap(2, 5, tuple(images)))

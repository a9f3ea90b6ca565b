"""Lattice layer: Hermite/Smith forms, saturation, unimodular completions.

Expected values for the worked examples were frozen from the enumeration
oracle below (membership by brute-force small integer combinations), which
is independent of the reduction code under test.
"""

import random
from fractions import Fraction
from itertools import product
from math import prod
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusaffine.intmat import det, from_columns, matmul
from torusaffine.lattice import (
    LatticeBasis,
    basis_frames,
    hnf,
    is_primitive,
    is_unimodular,
    primitive_part,
    saturate,
    smith_invariants,
    snf_decomposition,
    xgcd,
)


def combo_member(vectors, target, bound=8):
    """Oracle: is target an integer combination of vectors with coefficients
    in [-bound, bound]?  Exhaustive, no clever algebra."""
    k = len(vectors)
    for coeffs in product(range(-bound, bound + 1), repeat=k):
        cand = [0] * len(target)
        for c, v in zip(coeffs, vectors):
            for i, x in enumerate(v):
                cand[i] += c * x
        if tuple(cand) == tuple(target):
            return True
    return False


def rational_coords(vectors, target):
    """Oracle: the coordinates of target in the span of independent
    vectors, by Fraction Gauss-Jordan elimination, or None when target is
    outside the span."""
    k = len(vectors)
    rows = [[Fraction(v[i]) for v in vectors] + [Fraction(x)] for i, x in enumerate(target)]
    for c in range(k):
        pivot = next(i for i in range(c, len(rows)) if rows[i][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i, row in enumerate(rows):
            if i != c and row[c] != 0:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[c])]
    if any(row[k] != 0 for row in rows[k:]):
        return None
    return tuple(row[k] for row in rows[:k])


def same_lattice(vs1, vs2, bound=8):
    return all(combo_member(vs2, v, bound) for v in vs1) and all(
        combo_member(vs1, v, bound) for v in vs2
    )


# ---------------------------------------------------------------- xgcd


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_identity(a, b):
    g, x, y = xgcd(a, b)
    assert g == a * x + b * y
    assert g >= 0
    if (a, b) != (0, 0):
        assert a % g == 0 and b % g == 0


# ------------------------------------------------------ primitive_part


def test_primitive_part_examples():
    assert primitive_part((4, 6)) == ((2, 3), 2)
    # sign rule forces the first nonzero entry positive
    assert primitive_part((-3, 3)) == ((1, -1), 3)
    assert primitive_part((0, -5, 0)) == ((0, 1, 0), 5)


def test_primitive_part_zero_vector():
    with pytest.raises(ValueError):
        primitive_part((0, 0, 0))


def test_fractional_entries_are_refused():
    # int() would truncate (5/2, 1) to (2, 1) and (1.7, 0) to (1, 0)
    with pytest.raises(ValueError, match="direction entries must be integers"):
        primitive_part((Fraction(5, 2), 1))
    with pytest.raises(ValueError, match="direction entries must be integers"):
        hnf([(1.7, 0, 0), (0, 2, 0)])
    assert primitive_part((Fraction(4), -2.0)) == ((2, -1), 2)
    assert hnf([(2.0, 0), (0, Fraction(3))]) == hnf([(2, 0), (0, 3)])


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=5))
def test_primitive_part_roundtrip(v):
    if all(x == 0 for x in v):
        return
    prim, content = primitive_part(v)
    assert content > 0
    assert is_primitive(prim)
    scaled = tuple(content * x for x in prim)
    first = next(x for x in v if x != 0)
    if first > 0:
        assert scaled == tuple(v)
    else:
        assert scaled == tuple(-x for x in v)


# ---------------------------------------------------------------- hnf


def test_hnf_example_det2():
    basis = hnf([(1, 2), (3, 4)])
    assert basis.vectors == ((1, 0), (0, 2))
    assert same_lattice(basis.vectors, [(1, 2), (3, 4)])
    assert not basis.saturated  # index 2 in Z^2


def test_hnf_identity_like():
    assert hnf([(1, 0), (0, 1)]).vectors == ((1, 0), (0, 1))
    assert hnf([(0, 1), (1, 0)]).vectors == ((1, 0), (0, 1))


def test_hnf_rank0():
    assert hnf([(0, 0, 0)]).vectors == ()
    assert hnf([(0, 0), (0, 0)]).rank == 0


def test_hnf_drops_dependent_generators():
    basis = hnf([(2, 4), (1, 2), (3, 6)])
    assert basis.vectors == ((1, 2),)


def test_hnf_shape_convention():
    # pivots positive, entry left of the second pivot reduced into [0, pivot)
    basis = hnf([(2, 1), (0, 5)])
    assert basis.vectors == ((2, 1), (0, 5))
    basis = hnf([(2, -9), (0, 5)])
    assert basis.vectors == ((2, 1), (0, 5))


@st.composite
def small_vectors(draw, maxdim=4):
    n = draw(st.integers(2, maxdim))
    k = draw(st.integers(1, n))
    return [
        tuple(draw(st.integers(-9, 9)) for _ in range(n)) for _ in range(k)
    ]


@given(small_vectors())
@settings(max_examples=150)
def test_hnf_idempotent_and_generation_invariant(vecs):
    basis = hnf(vecs)
    assert hnf(basis.vectors).vectors == basis.vectors if basis.vectors else True
    # adding integer combinations of the generators changes nothing
    extra = tuple(sum(x) for x in zip(*vecs)) if len(vecs) > 1 else vecs[0]
    assert hnf(list(vecs) + [extra]).vectors == basis.vectors


# ------------------------------------------------------- is_unimodular


def test_is_unimodular_examples():
    assert is_unimodular(from_columns([(2, 1), (1, 1)]))
    assert not is_unimodular(from_columns([(2, 0), (0, 2)]))
    assert is_unimodular(((1, 0), (0, -1)))


# ------------------------------------------------------------ smith


def test_smith_examples():
    assert smith_invariants(((1, 0), (0, 1))) == (1, 1)
    assert smith_invariants(((2, 0), (0, 4))) == (2, 4)
    assert smith_invariants(from_columns([(1, 1), (1, -1)])) == (1, 2)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=120)
def test_smith_decomposition_properties(nr, nc, data):
    mat = tuple(
        tuple(data.draw(st.integers(-9, 9)) for _ in range(nc))
        for _ in range(nr)
    )
    d, u, v = snf_decomposition(mat)
    assert matmul(matmul(u, mat), v) == d
    assert is_unimodular(u) and is_unimodular(v)
    diag = [d[i][i] for i in range(min(nr, nc))]
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    assert all(x >= 0 for x in diag)


def test_smith_product_is_abs_det():
    mat = ((12, 6, 4), (3, 9, 6), (2, 16, 14))
    invs = smith_invariants(mat)
    prod = 1
    for x in invs:
        prod *= x
    assert prod == abs(det(mat))


def test_smith_finishes_on_dense_input():
    # dense 4x4 input whose entries grew without bound in a
    # swap-until-stable elimination
    for bound in (10**4, 10**7):
        rng = random.Random(7)
        for _ in range(30):
            mat = tuple(
                tuple(rng.randint(-bound, bound) for _ in range(4)) for _ in range(4)
            )
            t0 = perf_counter()
            d, u, v = snf_decomposition(mat)
            assert perf_counter() - t0 < 2.0, mat
            assert matmul(matmul(u, mat), v) == d
            assert prod(smith_invariants(mat)) == abs(det(mat))


# --------------------------------------------------------- saturate


def test_saturate_example():
    basis = hnf([(2, 2, 0), (0, 2, 2)])
    sat = saturate(basis)
    assert sat.saturated
    assert sat.vectors == ((1, 0, -1), (0, 1, 1))
    assert combo_member(sat.vectors, (1, 1, 0))
    # saturation is idempotent
    assert saturate(sat) is sat


def test_saturate_index_equals_smith_product_of_inclusion():
    basis = hnf([(2, 2, 0), (0, 2, 2)])
    sat = saturate(basis)
    coords = [rational_coords(sat.vectors, v) for v in basis.vectors]
    assert all(c is not None and all(x.denominator == 1 for x in c) for c in coords)
    invs = smith_invariants(from_columns([[int(x) for x in c] for c in coords]))
    prod = 1
    for x in invs:
        prod *= x
    assert prod == 4


@given(small_vectors())
@settings(max_examples=120)
def test_saturate_properties(vecs):
    basis = hnf(vecs)
    if basis.rank == 0:
        return
    sat = saturate(basis)
    assert sat.saturated
    assert sat.rank == basis.rank
    # every original vector lies in the saturation
    for v in basis.vectors:
        coords = rational_coords(sat.vectors, v)
        assert coords is not None and all(x.denominator == 1 for x in coords)


# ----------------------------------------- unimodular completions


def test_basis_extension_prefix_columns():
    assert basis_frames(hnf([(1, 0)]))[0] == ((1, 0), (0, 1))
    for gens in ([(0, 1)], [(2, 3)], [(2, 2, 0), (0, 2, 2)]):
        sat = saturate(hnf(gens))
        u, u_inv = basis_frames(sat)
        assert is_unimodular(u)
        for j, vec in enumerate(sat.vectors):
            assert tuple(row[j] for row in u) == vec
        assert matmul(u, u_inv) == tuple(
            tuple(int(i == j) for j in range(len(u))) for i in range(len(u))
        )


def test_basis_extension_requires_saturated():
    with pytest.raises(ValueError):
        basis_frames(hnf([(2, 0), (0, 2)]))
    with pytest.raises(ValueError):
        basis_frames(hnf([(2, 4)]))


@given(st.lists(st.integers(-30, 30), min_size=2, max_size=5))
def test_basis_extension_property(v):
    if all(x == 0 for x in v):
        return
    prim, _ = primitive_part(v)
    basis = hnf([prim])
    assert basis.vectors == (prim,) and basis.saturated
    u = basis_frames(basis)[0]
    assert tuple(row[0] for row in u) == prim
    assert is_unimodular(u)
    # deterministic: same input, same completion
    assert basis_frames(hnf([prim]))[0] == u

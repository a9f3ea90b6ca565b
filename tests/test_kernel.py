"""The integer-scaled exact kernel against plain-Fraction references.

Each reference below is written here, with one Fraction per product and
sum, and checks one piece of the kernel over T^2 - T^4: the rational
mat-vec, the canonical base of a coset, point membership, the saturation
flag of a Hermite basis, the cached frames of a saturated lattice and the
exact and mod-m matrix inverse.  The Smith decomposition's own properties
are checked in test_lattice.py.
"""

import pickle
import random
from fractions import Fraction
from math import gcd
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusaffine.affine import AffineTorusAuto
from torusaffine.collineation import build_incidence, collineation_group
from torusaffine.geometry import (
    IntersectionCount,
    RatPoint,
    RationalSubtorus,
    _frames,
    contains_point,
    line_through,
)
from torusaffine.grid import DiscreteLine, affine_table
from torusaffine.intmat import det, frac_matvec, from_columns, identity, matmul
from torusaffine import lattice
from torusaffine.lattice import (
    basis_frames,
    hnf,
    matrix_inverse,
    saturate,
    smith_invariants,
    snf_decomposition,
)
from torusaffine.reconstruction import GridMap, PropertyReport, Witness
from torusaffine.subtorus import ComponentDecomposition, intersect_subtori, subtorus_span


def ref_matvec(mat, vec):
    return tuple(
        sum((Fraction(x) * Fraction(y) for x, y in zip(row, vec)), Fraction(0))
        for row in mat
    )


def ref_inverse(mat):
    """Exact inverse of a unimodular matrix by Fraction Gauss-Jordan
    elimination of [A | I]."""
    n = len(mat)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(mat)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i, row in enumerate(rows):
            if i != c and row[c] != 0:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[c])]
    assert all(x.denominator == 1 for row in rows for x in row[n:])
    return tuple(tuple(int(x) for x in row[n:]) for row in rows)


def ref_completion(basis):
    """The completion and its inverse as first built: u^-1 . diag(v^-1, I)
    from the Smith decomposition d = u . B . v, inverted by Gauss-Jordan."""
    n, k = basis.dim, basis.rank
    _, u, v = snf_decomposition(from_columns(basis.vectors))
    v_inv = ref_inverse(v)
    w = [
        [v_inv[i][j] if i < k and j < k else int(i == j) for j in range(n)]
        for i in range(n)
    ]
    frame = matmul(ref_inverse(u), w)
    return frame, ref_inverse(frame)


dims = st.integers(2, 4)
fracs = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def points(draw, n):
    return RatPoint(tuple(draw(fracs) for _ in range(n)))


@st.composite
def lattices(draw, n):
    """A saturated lattice of rank 1..n in Z^n."""
    vecs = draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=1,
            max_size=n,
        ).filter(lambda vs: any(any(v) for v in vs))
    )
    return saturate(hnf(vecs))


@st.composite
def cosets(draw):
    n = draw(dims)
    return RationalSubtorus(draw(points(n)), draw(lattices(n)))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_frac_matvec_matches_fraction_reference(data):
    n = data.draw(dims)
    rows = data.draw(st.integers(1, 4))
    mat = data.draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=rows,
            max_size=rows,
        )
    )
    vec = data.draw(st.lists(fracs | st.integers(-9, 9), min_size=n, max_size=n))
    assert frac_matvec(mat, vec) == ref_matvec(mat, vec)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_base_matches_two_matvec_formula(data):
    n = data.draw(dims)
    lattice = data.draw(lattices(n))
    base = data.draw(points(n))
    k = lattice.rank
    u, u_inv = _frames(lattice)
    split = (Fraction(0),) * k + ref_matvec(u_inv, base.coords)[k:]
    s = RationalSubtorus(base, lattice)
    assert s.base == RatPoint(ref_matvec(u, split))
    assert all(0 <= c < 1 for c in s.base.coords)


@given(cosets(), st.data())
@settings(max_examples=200, deadline=None)
def test_contains_point_matches_split_coordinates(s, data):
    n, k = s.dim, s.rank
    if data.draw(st.booleans()):
        # a point of the coset: base plus a rational tangent vector
        t = [data.draw(fracs) for _ in range(k)]
        p = RatPoint(
            tuple(
                b + sum((c * v[i] for c, v in zip(t, s.lattice.vectors)), Fraction(0))
                for i, b in enumerate(s.base.coords)
            )
        )
    else:
        p = data.draw(points(n))
    _, u_inv = _frames(s.lattice)
    delta = tuple(a - b for a, b in zip(p.coords, s.base.coords))
    expected = all(x.denominator == 1 for x in ref_matvec(u_inv, delta)[k:])
    assert contains_point(s, p) == expected


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_hnf_saturated_flag_matches_smith_invariants(data):
    n = data.draw(dims)
    vecs = data.draw(
        st.lists(
            st.lists(st.integers(-8, 8), min_size=n, max_size=n),
            min_size=1,
            max_size=n + 1,
        )
    )
    basis = hnf(vecs)
    if not basis.vectors:
        return
    invariants = smith_invariants(from_columns(basis.vectors))
    assert basis.saturated == all(d == 1 for d in invariants)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_frames_invert_and_extend_the_basis(data):
    lattice = data.draw(lattices(data.draw(dims)))
    u, u_inv = _frames(lattice)
    assert matmul(u, u_inv) == identity(lattice.dim)
    assert from_columns(lattice.vectors) == tuple(row[: lattice.rank] for row in u)
    assert (u, u_inv) == ref_completion(lattice)


def test_frames_come_from_one_smith_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("basis_frames inverted a matrix")

    monkeypatch.setattr(lattice, "matrix_inverse", refuse)
    rng = random.Random(3)
    for n in (2, 3, 4):
        for k in (1, 2):
            for _ in range(60):
                vecs = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
                basis = saturate(hnf(vecs))
                if basis.rank != k:
                    continue
                u, u_inv = basis_frames(basis)
                assert matmul(u, u_inv) == identity(n)
                assert tuple(row[:k] for row in u) == from_columns(basis.vectors)


def test_frames_of_a_dense_line_in_t4():
    # U^-1 of this line has entries near 10^7, and its Smith form finishes
    lattice = hnf([(4368, -204, -1660, 1165)])
    t0 = perf_counter()
    u, u_inv = _frames(lattice)
    assert perf_counter() - t0 < 2.0
    assert matmul(u, u_inv) == identity(4)
    assert tuple(row[0] for row in u) == lattice.vectors[0]
    t0 = perf_counter()
    assert smith_invariants(u_inv) == (1, 1, 1, 1)
    assert perf_counter() - t0 < 2.0


@st.composite
def unimodular_matrices(draw, n):
    """A product of elementary row operations on the identity."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.permutations(range(n)))[:2]
        q = draw(st.integers(-4, 4))
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        if draw(st.booleans()):
            a[i] = [-x for x in a[i]]
    return tuple(map(tuple, a))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_matrix_inverse_integral(data):
    n = data.draw(dims)
    a = data.draw(unimodular_matrices(n))
    inv = matrix_inverse(a)
    assert matmul(a, inv) == identity(n)
    assert inv == ref_inverse(a)
    phi = AffineTorusAuto(a, data.draw(points(n)))
    p = data.draw(points(n))
    assert phi.inverse().apply(phi.apply(p)) == p


def mod_identity(a, inv, m):
    return tuple(tuple(x % m for x in row) for row in matmul(a, inv)) == identity(len(a))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_matrix_inverse_mod_m(data):
    n = data.draw(dims)
    m = data.draw(st.integers(3, 16))
    a = tuple(
        tuple(data.draw(st.integers(-m, m)) for _ in range(n)) for _ in range(n)
    )
    assume(gcd(det(a), m) == 1)
    inv = matrix_inverse(a, m)
    assert mod_identity(a, inv, m)
    assert all(0 <= x < m for row in inv for x in row)


def test_matrix_inverse_refuses_what_has_no_inverse():
    for bad in (((2, 0), (0, 1)), ((1, 2), (2, 4))):
        with pytest.raises(ValueError):
            matrix_inverse(bad)
    with pytest.raises(ValueError):
        matrix_inverse(((2, 1), (0, 3)), 6)
    with pytest.raises(ValueError):
        matrix_inverse(((1, 2), (2, 4)), 5)
    # a non-square matrix has no inverse, over Z or mod m
    with pytest.raises(ValueError):
        matrix_inverse(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError):
        matrix_inverse(((1, 0), (0, 1), (1, 1)), 5)


def test_inverse_comes_from_one_smith_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("matrix_inverse ran a Hermite form")

    monkeypatch.setattr(lattice, "_row_hnf", refuse)
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(40):
            a = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            if gcd(det(a), 10) == 1:
                assert mod_identity(a, matrix_inverse(a, 10), 10)
    a = ((2, 3), (1, 2))
    assert matmul(a, matrix_inverse(a)) == identity(2)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_affine_inverse_round_trips_every_grid_point(data):
    n = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(3, 16))
    a = tuple(
        tuple(data.draw(st.integers(0, m - 1)) for _ in range(n)) for _ in range(n)
    )
    assume(gcd(det(a), m) == 1)
    shift = RatPoint(tuple(Fraction(data.draw(st.integers(0, m - 1)), m) for _ in range(n)))
    phi = AffineTorusAuto(a, shift, m)
    back = affine_table(phi.inverse(), n, m)
    assert [back[i] for i in affine_table(phi, n, m)] == list(range(m**n))


def test_inverse_mod_6_without_a_unit_in_the_first_column():
    a = ((2, 3), (3, 2))
    inv = matrix_inverse(a, 6)
    assert mod_identity(a, inv, 6)
    phi = AffineTorusAuto(a, RatPoint((Fraction(1, 6), Fraction(1, 2))), 6)
    back = affine_table(phi.inverse(), 2, 6)
    assert [back[i] for i in affine_table(phi, 2, 6)] == list(range(36))


def test_value_classes_are_slotted_and_pickle_unchanged():
    line = line_through((Fraction(1, 3), Fraction(1, 2)), (2, 3))
    s = subtorus_span(RatPoint((Fraction(1, 5), 0, Fraction(2, 7))), [(1, 1, 0), (0, 1, 1)])
    meet = intersect_subtori(s, subtorus_span(RatPoint((0, 0, 0)), [(1, 0, 0)]))
    assert isinstance(meet, ComponentDecomposition)
    shift = RatPoint((Fraction(3, 5), Fraction(-1, 5)))
    phi = AffineTorusAuto(((7, 1), (1, 1)), shift, 5)
    grid_line = DiscreteLine(2, 5, (0, 3), (1, 3))
    values = (
        line.base,
        line,
        s,
        IntersectionCount.finite(3),
        meet,
        phi,
        grid_line,
        GridMap.from_affine(phi, 2, 5),
        Witness(((1, 0), (1, 1), (1, 2)), grid_line),
        collineation_group(2, 3),
        PropertyReport(True, False, None),
        s.lattice,
    )
    for value in values + (build_incidence(2, 3),):
        assert not hasattr(value, "__dict__")
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)
        assert hash(copy) == hash(value)
    assert pickle.loads(pickle.dumps(line)).direction == (2, 3)
    # what the dataclasses these classes replaced gave
    assert repr(shift) == "RatPoint(coords=(Fraction(3, 5), Fraction(4, 5)))"
    assert repr(phi) == (
        "AffineTorusAuto(matrix=((2, 1), (1, 1)), "
        "translation=RatPoint(coords=(Fraction(3, 5), Fraction(4, 5))), modulus=5)"
    )
    assert repr(grid_line) == (
        "DiscreteLine(n=2, m=5, generator=(0, 1), base=(1, 0))"
    )
    assert hash(shift) == hash((shift.coords,))
    bare = DiscreteLine.__new__(DiscreteLine)
    bare.__setstate__((2, 5, (0, 1), (1, 0)))
    assert bare == grid_line and hash(bare) == hash(grid_line)
    assert line != RationalSubtorus(line.base, line.lattice)
    fields = ((shift, "coords"), (phi, "matrix"), (grid_line, "points"), (line, "base"))
    for value, name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)

"""The integer-scaled exact kernel against plain-Fraction references.

Each reference below is written here, with one Fraction per product and
sum, and checks one piece of the kernel over T^2 - T^4: the rational
mat-vec, the canonical base of a coset, point membership, the saturation
flag of a Hermite basis and the cached frames of a saturated lattice.
"""

import pickle
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from torusaffine.geometry import (
    IntersectionCount,
    RatPoint,
    RationalSubtorus,
    _frames,
    contains_point,
    line_through,
)
from torusaffine.intmat import (
    frac_matvec,
    from_columns,
    identity,
    inverse_unimodular,
    matmul,
)
from torusaffine.lattice import basis_extension, hnf, saturate, smith_invariants, snf_decomposition
from torusaffine.subtorus import ComponentDecomposition, intersect_subtori, subtorus_span


def ref_matvec(mat, vec):
    return tuple(
        sum((Fraction(x) * Fraction(y) for x, y in zip(row, vec)), Fraction(0))
        for row in mat
    )


def ref_completion(basis):
    """The completion and its inverse as first built: u_inv . diag(v_inv, I)
    from the Smith decomposition, inverted by the adjugate."""
    n, k = basis.dim, basis.rank
    _, _, u_inv, _, v_inv = snf_decomposition(from_columns(basis.vectors))
    w = [
        [v_inv[i][j] if i < k and j < k else int(i == j) for j in range(n)]
        for i in range(n)
    ]
    u = matmul(u_inv, w)
    return u, inverse_unimodular(u)


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
    assert u == basis_extension(lattice)
    assert (u, u_inv) == ref_completion(lattice)


def test_value_classes_are_slotted_and_pickle_unchanged():
    line = line_through((Fraction(1, 3), Fraction(1, 2)), (2, 3))
    s = subtorus_span(RatPoint((Fraction(1, 5), 0, Fraction(2, 7))), [(1, 1, 0), (0, 1, 1)])
    meet = intersect_subtori(s, subtorus_span(RatPoint((0, 0, 0)), [(1, 0, 0)]))
    assert isinstance(meet, ComponentDecomposition)
    values = (line.base, line, s, IntersectionCount.finite(3), meet)
    for value in values:
        assert not hasattr(value, "__dict__")
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value)
        assert type(copy) is type(value)
    assert pickle.loads(pickle.dumps(line)).direction == (2, 3)

"""Rational subtorus cosets: spans, line and coset intersection counting,
component decomposition, quotient projections and images.

The coset type, its membership test and ``_meet``, the one coset
intersection that the counts and the decomposition here read, live in
:mod:`torusaffine.geometry` (a rational line is the rank-1 coset); the type
and the membership test are re-exported here.
"""

from __future__ import annotations

from fractions import Fraction

from .affine import AffineTorusAuto
from .common import Frozen
from .geometry import (
    IntersectionCount,
    RationalLine,
    RationalSubtorus,
    _frames,
    _meet,
    contains_point,  # noqa: F401  (called through subtorus by bench/queries.py)
)
from .intmat import frac_matvec, matvec
from .lattice import _row_hnf, hnf, saturate
from .lattice import snf_decomposition  # noqa: F401  (wrapped by name in bench/layers.py)
from .ratpoint import RatPoint, _canonical, origin


def subtorus_span(base: RatPoint, dirs) -> RationalSubtorus:
    """Smallest rational subtorus coset through base with the given tangent
    directions."""
    return RationalSubtorus(base, saturate(hnf(dirs)))


def line_as_subtorus(line: RationalLine) -> RationalSubtorus:
    return RationalSubtorus(line.base, line.lattice)


def line_subtorus_count(line: RationalLine, s: RationalSubtorus) -> IntersectionCount:
    """How often a rational line meets a subtorus coset: infinite exactly
    when the line lies inside it, otherwise an exact finite count."""
    met = _meet(line, s)
    if met is None:
        return IntersectionCount.finite(0)
    # a solution with a kernel means the line runs inside the coset
    count, _, kernel = met
    return IntersectionCount.infinite() if kernel else IntersectionCount.finite(count)


class ComponentDecomposition(Frozen):
    """The pieces of a nonempty intersection of two subtorus cosets: how
    many parallel components there are, their common dimension, and the
    component through the least point of the solution coset `_meet` builds
    on s1's points, which holds one point per component and is fixed by
    s1's base and the particular solution (a bare point when the
    intersection is finite)."""

    __slots__ = ("component_count", "common_dimension", "representative")


def intersect_subtori(
    s1: RationalSubtorus, s2: RationalSubtorus
) -> ComponentDecomposition | None:
    """Intersect two subtorus cosets; None when they are disjoint."""
    met = _meet(s1, s2)
    if met is None:
        return None
    count, (scale, best, gens), kernel = met
    # As q_j g_j = 0 (mod scale), the points are the coset of best modulo
    # the lattice of the gens and scale Z^n.  Its row Hermite form has row
    # i's pivot in column i, so reducing coordinate i into [0, pivot) by
    # row i, in order, leaves the lexicographically least point.
    rows = [list(g) for _, g in gens]
    rows += ([0] * i + [scale] + [0] * (s1.dim - 1 - i) for i in range(s1.dim))
    for i, row in enumerate(_row_hnf(rows)):
        q = best[i] // row[i]
        best = [x - q * y for x, y in zip(best, row)]
    anchor = _canonical(tuple(Fraction(c, scale) for c in best))

    basis_matrix = s1.lattice.matrix()
    kernel_images = [matvec(basis_matrix, coeffs[: s1.rank]) for coeffs in kernel]
    if not kernel_images:
        return ComponentDecomposition(count, 0, anchor)
    tangent = saturate(hnf(kernel_images))
    component = RationalSubtorus(anchor, tangent)
    return ComponentDecomposition(count, tangent.rank, component)


def quotient_project(p: RatPoint, u: RationalSubtorus) -> RatPoint:
    """Image of p in the quotient torus by a subtorus through 0, in the
    coordinates fixed by the deterministic unimodular completion."""
    if u.base != origin(u.dim):
        raise ValueError("subtorus does not pass through 0")
    if p.dim != u.dim:
        raise ValueError("dimension mismatch")
    _, u_inv = _frames(u.lattice)
    split = frac_matvec(u_inv, p.coords)
    return RatPoint(split[u.rank :])


def image_subtorus(s: RationalSubtorus, phi: AffineTorusAuto) -> RationalSubtorus:
    """Set image of a subtorus coset under an integral affine automorphism."""
    if phi.modulus is not None:
        raise ValueError("image requires an integral automorphism")
    if phi.dim != s.dim:
        raise ValueError("dimension mismatch")
    vectors = [matvec(phi.matrix, v) for v in s.lattice.vectors]
    return RationalSubtorus(phi.apply(s.base), saturate(hnf(vectors)))

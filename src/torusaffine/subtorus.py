"""Rational subtorus cosets: spans, line and coset intersection counting,
component decomposition, quotient projections and images.

The coset type itself, its membership test and the congruence solver live
in :mod:`torusaffine.geometry` (a rational line is the rank-1 coset) and are
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .affine import AffineTorusAuto
from .geometry import (
    IntersectionCount,
    RatPoint,
    RationalLine,
    RationalSubtorus,
    _congruence_solve,
    _frames,
    contains_point,
    origin,
)
from .intmat import frac_matvec, matvec
from .lattice import hnf, saturate
from .lattice import snf_decomposition  # noqa: F401  (wrapped by name in bench/layers.py)


def subtorus_span(base: RatPoint, dirs) -> RationalSubtorus:
    """Smallest rational subtorus coset through base with the given tangent
    directions."""
    lattice = saturate(hnf(dirs))
    if lattice.rank == 0:
        raise ValueError("no direction")
    return RationalSubtorus(base, lattice)


def line_as_subtorus(line: RationalLine) -> RationalSubtorus:
    return RationalSubtorus(line.base, line.lattice)


def line_subtorus_count(line: RationalLine, s: RationalSubtorus) -> IntersectionCount:
    """How often a rational line meets a subtorus coset: infinite exactly
    when the line lies inside it, otherwise an exact finite count."""
    if line.base.dim != s.dim:
        raise ValueError("dimension mismatch")
    _, u_inv = _frames(s.lattice)
    split = matvec(u_inv, line.direction)
    if all(x == 0 for x in split[s.rank :]):
        if contains_point(s, line.base):
            return IntersectionCount.infinite()
        return IntersectionCount.finite(0)
    columns = [line.direction] + [tuple(-a for a in v) for v in s.lattice.vectors]
    target = tuple(b - a for a, b in zip(line.base.coords, s.base.coords))
    solved = _congruence_solve(columns, target, want_solutions=False)
    if solved is None:
        return IntersectionCount.finite(0)
    return IntersectionCount.finite(solved[0])


@dataclass(frozen=True)
class ComponentDecomposition:
    """The pieces of a nonempty intersection of two subtorus cosets: how
    many parallel components there are, their common dimension, and the
    component through the smallest point the solver found (a bare point
    when the intersection is finite)."""

    component_count: int
    common_dimension: int
    representative: RationalSubtorus | RatPoint


def intersect_subtori(
    s1: RationalSubtorus, s2: RationalSubtorus
) -> ComponentDecomposition | None:
    """Intersect two subtorus cosets; None when they are disjoint."""
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    k1 = s1.rank
    columns = list(s1.lattice.vectors) + [
        tuple(-a for a in v) for v in s2.lattice.vectors
    ]
    target = tuple(b - a for a, b in zip(s1.base.coords, s2.base.coords))
    solved = _congruence_solve(columns, target)
    if solved is None:
        return None
    count, (denom, sols), kernel = solved
    basis_matrix = s1.lattice.matrix()
    scale = denom
    for c in s1.base.coords:
        scale = lcm(scale, c.denominator)
    mult = scale // denom
    base_scaled = [c.numerator * (scale // c.denominator) for c in s1.base.coords]
    best = None
    for x in sols:
        shift = matvec(basis_matrix, x[:k1])
        coords = tuple((b + t * mult) % scale for b, t in zip(base_scaled, shift))
        if best is None or coords < best:
            best = coords
    anchor = RatPoint(tuple(Fraction(c, scale) for c in best))

    kernel_images = [matvec(basis_matrix, coeffs[:k1]) for coeffs in kernel]
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

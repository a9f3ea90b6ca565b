"""Structural properties of a line-preserving grid map: parallels, blocks
in 2D and hyperplane cosets at prime modulus.  The census and the
acceptance tests read them; the verdict module does not import this one."""

from __future__ import annotations

from itertools import product
from math import gcd

from .common import Frozen
from .grid import GridMap, _factorize, _table, canonical_generator
from .grid import enumerate_discrete_lines, is_affine_perm, line_indices
from .reconstruction import _image_line


class PropertyReport(Frozen):
    """Structural facts checked for a verified line-preserving map; a
    property that is not checked at this (n, m) reads None."""

    __slots__ = (
        "parallels_preserved", "blocks_preserved", "subtorus_cosets_preserved"
    )


def _direction_normalizer(f: GridMap) -> tuple | None:
    """A matrix mod m acting on line directions exactly as f does on the
    four block families (horizontal, vertical, slope 1, slope -1), or None
    when no matrix matches.  A translation changes no generator, so the
    lines through 0 stand for their families.  Let gh, gv, gd, ga be the
    canonical generators of their images.  A match over a unit stays one,
    so take columns gh, u gv with det(gh, gv) a unit: gh + u gv spans <gd>
    iff Cramer's rule gives gd = a gh + b gv, a and b units, u = b / a.
    Then gh - u gv must span <ga>.

    Blocks are woven out of those four families, so block preservation is a
    statement about f with its direction action divided out; an affine map
    is normalized by its own linear part.
    """
    m = f.m
    lines = [line_indices((0, 0), d, m) for d in ((1, 0), (0, 1), (1, 1), (1, m - 1))]
    gens = [_image_line(f, line) for line in lines]
    if None in gens:
        return None
    (h0, h1), (v0, v1), (d0, d1), ga = (canonical_generator(g, m) for g in gens)
    a, b = d0 * v1 - d1 * v0, h0 * d1 - h1 * d0
    if gcd((h0 * v1 - h1 * v0) * a * b, m) != 1:
        return None
    u = b * pow(a, -1, m) % m
    if canonical_generator(((h0 - u * v0) % m, (h1 - u * v1) % m), m) != ga:
        return None
    return ((h0, u * v0 % m), (h1, u * v1 % m))


def _blocks_preserved(f: GridMap) -> bool:
    """Whether h = ψ⁻¹∘f, ψ = (direction normalizer, f(0)), maps every block
    onto a block.  Blocks are axis rectangles with x1 − x0 ≡ ±(y1 − y0) mod
    m; the square-sided quadruples (x0, y0), (x0 + d, y0), (x0, y0 + d),
    (x0 + d, y0 + d), d ≠ 0, reach all of them (sides d, −d at (x0, y0) are
    sides d, d at (x0, y0 − d)).  h is a bijection, so an image is a block
    exactly when it has two columns, two rows and such sides."""
    m = f.m
    matrix = _direction_normalizer(f)
    if matrix is None:
        return False
    back = [0] * (m * m)
    for i, j in enumerate(_table(matrix, f.image_of((0, 0)), 2, m)):
        back[j] = i
    hx = [back[i] // m for i in f.images]
    hy = [back[i] % m for i in f.images]
    # r0 and r1 are the flat indices of (x0, 0) and (x0 + d, 0)
    for r0, d in product(range(0, m * m, m), range(1, m)):
        r1 = (r0 + d * m) % (m * m)
        for y0 in range(m):
            y1 = (y0 + d) % m
            a, b, c, e = r0 + y0, r0 + y1, r1 + y0, r1 + y1
            cols = {hx[a], hx[b], hx[c], hx[e]}
            rows = {hy[a], hy[b], hy[c], hy[e]}
            if len(cols) != 2 or len(rows) != 2:
                return False
            (u, v), (s, t) = cols, rows
            if (v - u - t + s) % m and (v - u + t - s) % m:
                return False
    return True


def check_paper_properties(f: GridMap) -> PropertyReport:
    """Parallels map to parallels; in 2D, blocks map to blocks; in higher
    dimension at prime modulus, hyperplane subgroup cosets map to hyperplane
    cosets.  Raises ValueError unless f maps every line onto a line.

    The line walk reads image indices straight from f.images.  At prime m
    and n >= 3, a map that sends lines onto lines is affine by the classical
    fundamental theorem over F_m (m >= 3, and F_m has no field automorphism
    but the identity), so the coset field is read off `is_affine_perm`."""
    m = f.m
    firsts = {}  # direction -> the generator of its first line's image
    parallels = True
    for base, g in enumerate_discrete_lines(f.n, m):
        gen = _image_line(f, line_indices(base, g, m))
        if gen is None:
            raise ValueError("map does not preserve lines")
        if gen != firsts.setdefault(g, gen):  # equal ones need no canonical form
            parallels &= canonical_generator(gen, m) == canonical_generator(firsts[g], m)
    blocks = _blocks_preserved(f) if f.n == 2 else None
    subtori = None
    if f.n >= 3 and list(_factorize(m)) == [(m, 1)]:
        subtori = is_affine_perm(f.n, m, f.images) is not None
    return PropertyReport(parallels, blocks, subtori)

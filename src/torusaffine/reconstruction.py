"""Recover the affine model of a grid bijection, or certify that none exists.

The pipeline: strip the translation, read candidate matrix columns off the
images of the unit directions, resolve per-column signs by pointwise
verification, and on failure hunt down three collinear points whose images
are provably non-collinear.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .affine import AffineTorusAuto, balanced_residue
from .collineation import (
    DiscreteLine,
    build_incidence,
    canonical_generator,
    index_point,
    point_index,
)
from .geometry import RatPoint, is_block
from .intmat import det


class NotCollineationError(Exception):
    """Some discrete line's image is not a line; carries the point triple."""

    def __init__(self, triple):
        super().__init__("not a collineation on this line")
        self.triple = triple


class NonaffineCollineationError(Exception):
    """The map preserves all discrete lines yet matches no affine map.

    Cannot occur for prime moduli; for composite moduli it is a genuine
    (and reportable) possibility.
    """


@dataclass(frozen=True)
class GridMap:
    """A bijection of the m-grid on the n-torus, stored as image indices in
    lexicographic point order."""

    n: int
    m: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if self.m < 3:
            raise ValueError("modulus too small")
        size = self.m**self.n
        if len(self.images) != size:
            raise ValueError("image table has the wrong length")
        if len(set(self.images)) != size or not all(
            0 <= v < size for v in self.images
        ):
            raise ValueError("mapping is not a permutation")

    @property
    def size(self) -> int:
        return self.m**self.n

    def image_of(self, p: tuple[int, ...]) -> tuple[int, ...]:
        return index_point(self.images[point_index(p, self.m)], self.n, self.m)

    @classmethod
    def from_affine(cls, phi: AffineTorusAuto, n: int, m: int) -> GridMap:
        if phi.modulus not in (None, m):
            raise ValueError("modulus mismatch")
        images = []
        for idx in range(m**n):
            p = index_point(idx, n, m)
            if phi.modulus is None:
                q = RatPoint(tuple(Fraction(c, m) for c in p))
                scaled = [c * m for c in phi.apply(q).coords]
                if any(s.denominator != 1 for s in scaled):
                    raise ValueError("map does not preserve this grid")
                images.append(point_index(tuple(int(s) for s in scaled), m))
            else:
                images.append(point_index(phi.apply_residues(p), m))
        return cls(n, m, tuple(images))


def normalize_translation(f: GridMap) -> tuple[GridMap, RatPoint]:
    """Split f into a 0-fixing map and the translation by f(0)."""
    shift = index_point(f.images[0], f.n, f.m)
    b = RatPoint(tuple(Fraction(c, f.m) for c in shift))
    images = []
    for idx in range(f.size):
        img = index_point(f.images[idx], f.n, f.m)
        images.append(point_index(tuple((a - s) % f.m for a, s in zip(img, shift)), f.m))
    return GridMap(f.n, f.m, tuple(images)), b


def _sign_canonical(v: tuple[int, ...], m: int) -> tuple[int, ...]:
    for x in v:
        if x > 0:
            return v
        if x < 0:
            return tuple(balanced_residue(-y, m) for y in v)
    return v


def image_direction(g: GridMap, d: tuple[int, ...]) -> tuple[int, ...]:
    """Balanced-residue representative of the image of direction d under a
    0-fixing grid map, sign-canonicalized.

    The m points of the line through 0 with direction d must map into the
    cyclic subgroup generated by the image of d itself; otherwise the line
    is broken and a point triple certifying that is raised.
    """
    m = g.m
    if g.images[0] != 0:
        raise ValueError("map must fix 0")
    if gcd(*d, m) != 1:
        raise ValueError("direction does not generate an m-point line")
    d = tuple(x % m for x in d)
    w = g.image_of(d)
    subgroup = {tuple(k * x % m for x in w) for k in range(m)}
    zero = (0,) * g.n
    for k in range(2, m):
        p = tuple(k * x % m for x in d)
        if g.image_of(p) not in subgroup:
            raise NotCollineationError((zero, d, p))
    balanced = tuple(balanced_residue(x, m) for x in w)
    return _sign_canonical(balanced, m)


@dataclass(frozen=True)
class Witness:
    """Certificate that a grid map is not a collineation: three points on
    one discrete line whose images lie on no discrete line at all."""

    points: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    line: DiscreteLine

    def validate(self, f: GridMap) -> bool:
        if len(set(self.points)) != 3:
            return False
        if any(p not in self.line.points for p in self.points):
            return False
        inc = build_incidence(f.n, f.m)
        images = [f.image_of(p) for p in self.points]
        for line in inc.lines:
            if all(q in line.points for q in images):
                return False
        return True


def _scan_order(inc):
    zero = (0,) * inc.n
    return sorted(
        range(len(inc.lines)),
        key=lambda i: (
            inc.lines[i].base != zero,
            inc.lines[i].base,
            inc.lines[i].generator,
        ),
    )


def _line_witness(f: GridMap, inc, li: int) -> Witness | None:
    """First point triple of line li whose images are non-collinear, in
    lexicographic (i, j, k) scan order; None if every triple fits on some
    line (possible only at composite moduli)."""
    pts = inc.lines[li].points
    images = [f.image_of(p) for p in pts]
    idxs = [point_index(q, f.m) for q in images]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            key = (min(idxs[i], idxs[j]), max(idxs[i], idxs[j]))
            cands = inc.pair_lines.get(key, ())
            for k in range(len(pts)):
                if k in (i, j):
                    continue
                bit = 1 << idxs[k]
                if not any(inc.masks[c] & bit for c in cands):
                    return Witness((pts[i], pts[j], pts[k]), inc.lines[li])
    return None


def verify_line_preserving(f: GridMap):
    """True when every discrete line maps onto a discrete line; otherwise
    the deterministic first Witness in scan order (lines through 0 first)."""
    inc = build_incidence(f.n, f.m)
    mask_set = frozenset(inc.masks)
    violated = []
    for li in _scan_order(inc):
        image_mask = 0
        for p in inc.lines[li].points:
            image_mask |= 1 << f.images[point_index(p, f.m)]
        if image_mask not in mask_set:
            violated.append(li)
    if not violated:
        return True
    for li in violated:
        witness = _line_witness(f, inc, li)
        if witness is not None:
            return witness
    raise NonaffineCollineationError(
        "line images are broken, yet every point triple stays collinear"
    )


def infer_affine(f: GridMap):
    """The affine map agreeing with f on the grid, else a Witness.

    The matrix is assembled from the images of the unit directions; the
    per-axis sign ambiguity of those reads is resolved by trying all sign
    patterns against the full grid.
    """
    n, m = f.n, f.m
    g, b = normalize_translation(f)
    try:
        cols = [
            image_direction(g, tuple(1 if i == axis else 0 for i in range(n)))
            for axis in range(n)
        ]
    except NotCollineationError:
        return _extract_witness(f)

    base = tuple(tuple(col[r] for col in cols) for r in range(n))
    if gcd(det(base), m) != 1:
        return _extract_witness(f)

    for signs in product((1, -1), repeat=n):
        matrix = tuple(
            tuple(balanced_residue(s * col[r], m) for s, col in zip(signs, cols))
            for r in range(n)
        )
        if _matches(g, matrix):
            return AffineTorusAuto(matrix, b, m)
    return _extract_witness(f)


def _matches(g: GridMap, matrix) -> bool:
    n, m = g.n, g.m
    for idx in range(g.size):
        p = index_point(idx, n, m)
        image = tuple(sum(a * x for a, x in zip(row, p)) % m for row in matrix)
        if g.images[idx] != point_index(image, m):
            return False
    return True


def _extract_witness(f: GridMap) -> Witness:
    verdict = verify_line_preserving(f)
    if verdict is True:
        raise NonaffineCollineationError(
            "map preserves every discrete line but matches no affine map"
        )
    return verdict


@dataclass(frozen=True)
class PropertyReport:
    """Structural facts checked for a verified line-preserving map."""

    parallels_preserved: bool
    blocks_preserved: bool | None
    subtorus_cosets_preserved: bool | None


def _image_line_generator(f: GridMap, inc, li: int) -> tuple[int, ...]:
    image_mask = 0
    for p in inc.lines[li].points:
        image_mask |= 1 << f.images[point_index(p, f.m)]
    return inc.lines[inc.masks.index(image_mask)].generator


def _parallels_preserved(f: GridMap, inc) -> bool:
    by_gen: dict[tuple[int, ...], set] = {}
    for li in range(len(inc.lines)):
        gen = inc.lines[li].generator
        by_gen.setdefault(gen, set()).add(_image_line_generator(f, inc, li))
    return all(len(images) == 1 for images in by_gen.values())


def _direction_normalizer(g: GridMap, inc) -> tuple | None:
    """A matrix mod m acting on line directions exactly as the 0-fixing map
    g does on the four block families (horizontal, vertical, slope 1, slope
    -1), or None when no matrix matches.

    Blocks are woven out of those four families, so block preservation is a
    statement about g with its direction action divided out; an affine map
    is normalized by its own linear part.
    """
    m = g.m
    families = [(1, 0), (0, 1), (1, 1), (1, m - 1)]
    zero_line = {
        line.generator: li
        for li, line in enumerate(inc.lines)
        if line.base == (0,) * 2
    }
    image_gen = {}
    for d in families:
        li = zero_line[canonical_generator(d, m)]
        try:
            image_gen[d] = _image_line_generator(g, inc, li)
        except ValueError:
            return None
    units = [u for u in range(1, m) if gcd(u, m) == 1]
    gh, gv = image_gen[(1, 0)], image_gen[(0, 1)]
    for u1, u2 in product(units, repeat=2):
        col1 = tuple(u1 * x % m for x in gh)
        col2 = tuple(u2 * x % m for x in gv)
        if gcd(det((col1, col2)), m) != 1:
            continue
        diag = tuple((a + b) % m for a, b in zip(col1, col2))
        anti = tuple((a - b) % m for a, b in zip(col1, col2))
        if (
            canonical_generator(diag, m) == canonical_generator(image_gen[(1, 1)], m)
            and canonical_generator(anti, m)
            == canonical_generator(image_gen[(1, m - 1)], m)
        ):
            return ((col1[0], col2[0]), (col1[1], col2[1]))
    return None


def _blocks_preserved(f: GridMap) -> bool:
    m = f.m
    g, _ = normalize_translation(f)
    inc = build_incidence(2, m)
    matrix = _direction_normalizer(g, inc)
    if matrix is None:
        return False
    inv_det = pow(det(matrix) % m, -1, m)
    inverse = (
        (inv_det * matrix[1][1] % m, -inv_det * matrix[0][1] % m),
        (-inv_det * matrix[1][0] % m, inv_det * matrix[0][0] % m),
    )
    reduced = []
    for idx in range(g.size):
        q = g.image_of(index_point(idx, 2, m))
        reduced.append(
            point_index(
                tuple(sum(a * x for a, x in zip(row, q)) % m for row in inverse), m
            )
        )
    h = GridMap(2, m, tuple(reduced))
    for x0, x1, y0, y1 in product(range(m), repeat=4):
        if x0 >= x1 or y0 == y1:
            continue
        corners = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
        before = is_block(
            *(RatPoint((Fraction(a, m), Fraction(b, m))) for a, b in corners)
        )
        if not before:
            continue
        mapped = [h.image_of(c) for c in corners]
        after = is_block(
            *(RatPoint((Fraction(a, m), Fraction(b, m))) for a, b in mapped)
        )
        if not after:
            return False
    return True


def _prime(m: int) -> bool:
    return m >= 2 and all(m % p for p in range(2, int(m**0.5) + 1))


def _plane_cosets_mod_p(n: int, p: int):
    """All rank-(n-1) subgroup cosets of (Z/p)^n, each as a frozenset of
    points: solution sets of one nonzero linear functional."""
    seen = set()
    for normal in product(range(p), repeat=n):
        if normal == (0,) * n or normal in seen:
            continue
        for u in range(2, p):
            seen.add(tuple(u * x % p for x in normal))
        seen.add(normal)
        for c in range(p):
            yield frozenset(
                pt
                for pt in product(range(p), repeat=n)
                if sum(a * x for a, x in zip(normal, pt)) % p == c
            )


def _subtorus_cosets_preserved(f: GridMap) -> bool:
    cosets = set(_plane_cosets_mod_p(f.n, f.m))
    for coset in cosets:
        if frozenset(f.image_of(p) for p in coset) not in cosets:
            return False
    return True


def check_paper_properties(f: GridMap) -> PropertyReport:
    """For a map that already passes verify_line_preserving: parallels map
    to parallels; in 2D, blocks map to blocks; in higher dimension at prime
    modulus, hyperplane subgroup cosets map to hyperplane cosets."""
    if verify_line_preserving(f) is not True:
        raise ValueError("map does not preserve lines")
    inc = build_incidence(f.n, f.m)
    parallels = _parallels_preserved(f, inc)
    blocks = _blocks_preserved(f) if f.n == 2 else None
    subtori = (
        _subtorus_cosets_preserved(f) if f.n >= 3 and _prime(f.m) else None
    )
    return PropertyReport(parallels, blocks, subtori)

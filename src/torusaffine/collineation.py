"""Discrete torus incidence structures and their full collineation groups.

Points are the m^n residue tuples.  Lines are the cosets of the order-m
cyclic subgroups whose generators lift to primitive integer directions --
exactly the grid shadows of rational torus lines.  The group computation is
exhaustive backtracking with incidence propagation, so reported orders are
exact, never estimates.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import gcd
from multiprocessing import get_context

from .affine import AffineTorusAuto
from .geometry import RatPoint

DEFAULT_NODE_BUDGET = 10**9


class BudgetExceededError(RuntimeError):
    """The search hit its node allowance; no partial answer is reported."""

    def __init__(self, nodes: int):
        super().__init__(f"search exceeded its node budget ({nodes} nodes)")
        self.nodes = nodes


def point_index(p: tuple[int, ...], m: int) -> int:
    idx = 0
    for c in p:
        idx = idx * m + c % m
    return idx


def index_point(idx: int, n: int, m: int) -> tuple[int, ...]:
    coords = []
    for _ in range(n):
        idx, c = divmod(idx, m)
        coords.append(c)
    return tuple(reversed(coords))


@lru_cache(maxsize=None)
def _units(m: int) -> tuple[int, ...]:
    return tuple(u for u in range(1, m) if gcd(u, m) == 1)


def canonical_generator(gen: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Lexicographically least generator of the cyclic subgroup <gen>."""
    return min(tuple(u * x % m for x in gen) for u in _units(m))


def primitive_lift(gen: tuple[int, ...], m: int) -> tuple[int, ...]:
    """A primitive integer vector congruent to gen mod m.

    Exists whenever gcd(gen, m) = 1; found by a small deterministic search
    over per-coordinate shifts by multiples of m.
    """
    if gcd(*gen, m) != 1:
        raise ValueError("generator shares a factor with the modulus")
    for radius in range(1, 4):
        for shift in iproduct(range(radius), repeat=len(gen)):
            cand = tuple(g + s * m for g, s in zip(gen, shift))
            if gcd(*cand) == 1:
                return cand
    raise AssertionError("no primitive lift found in search window")


@dataclass(frozen=True)
class DiscreteLine:
    """A coset of an order-m cyclic subgroup with primitive-liftable
    generator, stored canonically: lex-least generator, lex-least base."""

    n: int
    m: int
    generator: tuple[int, ...]
    base: tuple[int, ...]
    points: tuple[tuple[int, ...], ...] = field(default=None, compare=False)

    def __post_init__(self):
        m = self.m
        if len(self.generator) != self.n or len(self.base) != self.n:
            raise ValueError("dimension mismatch")
        if gcd(*self.generator, m) != 1:
            raise ValueError("generator shares a factor with the modulus")
        gen = canonical_generator(self.generator, m)
        pts = sorted(
            tuple((b + k * g) % m for b, g in zip(self.base, gen))
            for k in range(m)
        )
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "base", pts[0])
        object.__setattr__(self, "points", tuple(pts))


def lines_through(
    a: tuple[int, ...], b: tuple[int, ...], m: int
) -> list[DiscreteLine]:
    """Every discrete line through the distinct grid points a and b, sorted
    by generator.

    With d = b - a and e = gcd(d, m), the line a + <g> contains b exactly
    when e*g = d for a suitable generator g, so the candidates are
    g = d/e + (m/e)*t for t in (Z/e)^n, kept when gcd(g, m) = 1.
    """
    n = len(a)
    d = tuple((y - x) % m for x, y in zip(a, b))
    e = gcd(*d, m)
    if e == m:
        raise ValueError("the two points coincide")
    step = m // e
    gens = set()
    for t in iproduct(range(e), repeat=n):
        g = tuple(x // e + step * s for x, s in zip(d, t))
        if gcd(*g, m) == 1:
            gens.add(canonical_generator(g, m))
    return [DiscreteLine(n, m, g, a) for g in sorted(gens)]


def _generators(n: int, m: int) -> list[tuple[int, ...]]:
    """The sorted canonical generators of the order-m cyclic subgroups: a
    lexicographic walk meets each orbit under the units first at its least
    member, so marking the orbit there keeps exactly those."""
    gens = []
    seen = set()
    for g in iproduct(range(m), repeat=n):
        if gcd(*g, m) == 1 and g not in seen:
            gens.append(g)
            seen.update(tuple(u * x % m for x in g) for u in _units(m))
    return gens


def _is_base(p: tuple[int, ...], g: tuple[int, ...], m: int) -> bool:
    """Whether p is the lexicographically least point of p + <g>: with the
    earlier coordinates held fixed, k runs over the multiples of step, so
    coordinate x can drop to x mod gcd(step*y, m) and no further."""
    step = 1
    for x, y in zip(p, g):
        c = gcd(step * y, m)
        if x >= c:
            return False
        step *= m // c
    return True


def enumerate_discrete_lines(n: int, m: int) -> Iterator[DiscreteLine]:
    """All discrete lines of the m-grid on the n-torus, each once, lazily,
    in (base, generator) order."""
    if m < 3:
        raise ValueError("modulus too small")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    gens = _generators(n, m)
    return (
        DiscreteLine(n, m, g, p)
        for p in iproduct(range(m), repeat=n)
        for g in gens
        if _is_base(p, g, m)
    )


@dataclass(frozen=True)
class IncidenceStructure:
    """Immutable incidence data for one (n, m) grid: the lines, a point
    bitmask per line, the incident lines per point, and the lines through
    each point pair."""

    n: int
    m: int
    size: int
    lines: tuple[DiscreteLine, ...]
    masks: tuple[int, ...]
    through: tuple[tuple[int, ...], ...]
    pair_lines: dict


@lru_cache(maxsize=None)
def build_incidence(n: int, m: int) -> IncidenceStructure:
    lines = tuple(enumerate_discrete_lines(n, m))
    size = m**n
    masks = []
    through = [[] for _ in range(size)]
    pair_lines: dict[tuple[int, int], list[int]] = {}
    for li, line in enumerate(lines):
        mask = 0
        idxs = [point_index(p, m) for p in line.points]
        for idx in idxs:
            mask |= 1 << idx
            through[idx].append(li)
        for i, a in enumerate(idxs):
            for b in idxs[i + 1 :]:
                pair_lines.setdefault((a, b) if a < b else (b, a), []).append(li)
        masks.append(mask)
    return IncidenceStructure(
        n,
        m,
        size,
        lines,
        tuple(masks),
        tuple(tuple(t) for t in through),
        {k: tuple(v) for k, v in pair_lines.items()},
    )


def _factorize(m: int):
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            yield p, k
        p += 1
    if m > 1:
        yield m, 1


def affine_group_order(n: int, m: int) -> int:
    """|AGL_n(Z/m)| = m^n * |GL_n(Z/m)| via the prime-power product."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    total = m**n
    for p, k in _factorize(m):
        gl = p ** ((k - 1) * n * n)
        for i in range(n):
            gl *= p**n - p**i
        total *= gl
    return total


def is_affine_perm(n: int, m: int, images) -> AffineTorusAuto | None:
    """The unique affine form of a grid permutation, or None.

    b is read off the image of 0 and the matrix columns from the images of
    the unit vectors; the candidate is then verified pointwise.
    """
    size = m**n
    if len(images) != size:
        raise ValueError("image table has the wrong length")
    shift = index_point(images[0], n, m)
    cols = []
    for axis in range(n):
        e = tuple(1 if i == axis else 0 for i in range(n))
        img = index_point(images[point_index(e, m)], n, m)
        cols.append(tuple((a - b) % m for a, b in zip(img, shift)))
    matrix = tuple(tuple(col[r] for col in cols) for r in range(n))
    translation = RatPoint(tuple(Fraction(c, m) for c in shift))
    try:
        phi = AffineTorusAuto(matrix, translation, m)
    except ValueError:
        return None
    for idx in range(size):
        if point_index(phi.apply_residues(index_point(idx, n, m)), m) != images[idx]:
            return None
    return phi


@dataclass(frozen=True)
class GroupSummary:
    """Exact collineation-group data: total order, the affine subgroup
    order and its index, the node count of the search, and permutations
    generating the group (axis translations plus the point stabilizer)."""

    order: int
    affine_order: int
    index: int
    nodes: int
    generators: tuple[tuple[int, ...], ...]


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _search(inc: IncidenceStructure, first: int, budget: int):
    """Backtracking count of collineations fixing 0 whose image of e1 is
    pinned to `first`.  Returns (stabilizer permutations, nodes) or raises
    BudgetExceededError."""
    m = inc.m
    size = inc.size
    through = inc.through
    masks = inc.masks
    pair_lines = inc.pair_lines
    full = (1 << size) - 1

    img = [-1] * size
    img[0] = 0
    used = 1
    line_lists = [[] for _ in inc.lines]
    line_imgs = [0] * len(inc.lines)
    for li in through[0]:
        line_lists[li].append(0)
        line_imgs[li] |= 1
    e1 = point_index((1, 0), m)
    e2 = point_index((0, 1), m)
    e12 = point_index((1, 1), m)

    perms = []
    nodes = 0

    def assign(p: int, v: int) -> bool:
        nonlocal nodes, used
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes)
        img[p] = v
        used |= 1 << v
        bit = 1 << v
        for li in through[p]:
            line_lists[li].append(v)
            line_imgs[li] |= bit
        for li in through[p]:
            lst = line_lists[li]
            if len(lst) < 2:
                continue
            a, b = lst[0], lst[1]
            key = (a, b) if a < b else (b, a)
            got = line_imgs[li]
            for ci in pair_lines.get(key, ()):
                if got & ~masks[ci] == 0:
                    break
            else:
                return False
        return True

    def undo(p: int, v: int):
        nonlocal used
        img[p] = -1
        used &= ~(1 << v)
        bit = ~(1 << v)
        for li in through[p]:
            line_lists[li].pop()
            line_imgs[li] &= bit

    def candidates(p: int) -> int:
        allowed = full
        for li in through[p]:
            lst = line_lists[li]
            if len(lst) < 2:
                continue
            a, b = lst[0], lst[1]
            key = (a, b) if a < b else (b, a)
            got = line_imgs[li]
            union = 0
            for ci in pair_lines.get(key, ()):
                cm = masks[ci]
                if got & ~cm == 0:
                    union |= cm
            allowed &= union
            if not allowed:
                return 0
        return allowed & ~used

    def next_point(depth: int) -> int:
        if depth == 2:
            return e2
        if depth == 3:
            return e12
        best = -1
        best_score = -1
        for q in range(size):
            if img[q] >= 0:
                continue
            score = 0
            for li in through[q]:
                if len(line_lists[li]) >= 2:
                    score += 1
            if score > best_score:
                best, best_score = q, score
        return best

    def dfs(depth: int):
        if depth == size:
            perms.append(tuple(img))
            return
        p = next_point(depth)
        for v in _iter_bits(candidates(p)):
            if assign(p, v):
                dfs(depth + 1)
            undo(p, v)

    if assign(e1, first):
        dfs(2)
    undo(e1, first)
    return perms, nodes


def _search_task(args):
    n, m, first, budget = args
    inc = build_incidence(n, m)
    try:
        perms, nodes = _search(inc, first, budget)
        return perms, nodes, False
    except BudgetExceededError as err:
        return [], err.nodes, True


def collineation_group(
    n: int, m: int, workers: int = 1, budget: int | None = None
) -> GroupSummary:
    """Exact order of the full collineation group of the (n, m) grid, by
    exhaustive search over point stabilizers and orbit-stabilizer with the
    translations.  Deterministic for any worker count."""
    if n != 2:
        raise ValueError("exhaustive search is implemented for dimension 2 only")
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    inc = build_incidence(n, m)
    size = inc.size
    tasks = [(n, m, first, budget) for first in range(1, size)]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        results = [_search_task(t) for t in tasks]
    else:
        with get_context("fork").Pool(workers) as pool:
            results = pool.map(_search_task, tasks)
    total_nodes = sum(r[1] for r in results)
    if total_nodes > budget or any(r[2] for r in results):
        raise BudgetExceededError(total_nodes)
    stabilizer = [perm for r in results for perm in r[0]]
    order = size * len(stabilizer)
    affine = affine_group_order(n, m)
    if order % affine:
        raise AssertionError("affine subgroup order does not divide group order")
    translations = []
    for axis in range(n):
        e = tuple(1 if i == axis else 0 for i in range(n))
        translations.append(
            tuple(
                point_index(
                    tuple((a + b) % m for a, b in zip(index_point(idx, n, m), e)), m
                )
                for idx in range(size)
            )
        )
    return GroupSummary(
        order=order,
        affine_order=affine,
        index=order // affine,
        nodes=total_nodes,
        generators=tuple(translations) + tuple(stabilizer),
    )

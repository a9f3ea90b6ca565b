"""Incidence tables of the torus grid and the full collineation groups of
its T^2 case.

The group is counted exactly, never estimated: the translations are
transitive on the points, and the stabilizer of 0 is counted orbit by orbit
along a base, by backtracking with incidence propagation that stops at the
first map each new orbit point needs.  The lines and points are those of
:mod:`torusaffine.grid`.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from math import prod

from .common import MAX_POINTS, Frozen
from .grid import _check_grid, _factorize, _generators
from .grid import enumerate_discrete_lines, line_indices

DEFAULT_NODE_BUDGET = 10**9


class BudgetExceededError(RuntimeError):
    """The search hit its node allowance; no partial answer is reported."""

    def __init__(self, nodes: int):
        super().__init__(f"search exceeded its node budget ({nodes} nodes)")
        self.nodes = nodes


class IncidenceStructure(Frozen):
    """Immutable incidence data for one (n, m) grid: the (base, generator)
    pairs of `enumerate_discrete_lines`, a point bitmask per line, and
    through[a][j], the line a + <g_j> for g_j the j-th of `_generators`."""

    __slots__ = ("n", "m", "size", "lines", "masks", "through")

    @property
    def pair_lines(self) -> dict[tuple[int, int], tuple[int, ...]]:
        # Only the bench's witness probe reads this, until ROADMAP item 9
        # moves that probe; each read rebuilds the lines of every point pair.
        return {(a, b): tuple(li for li in self.through[a] if self.masks[li] >> b & 1)
                for a in range(self.size) for b in range(a + 1, self.size)}


@lru_cache(maxsize=None)
def build_incidence(n: int, m: int) -> IncidenceStructure:
    size = m**n
    slot = {g: j for j, g in enumerate(_generators(n, m))}
    lines = tuple(enumerate_discrete_lines(n, m))
    masks = []
    through = [[0] * len(slot) for _ in range(size)]
    for li, (base, g) in enumerate(lines):
        mask = 0
        for idx in line_indices(base, g, m):
            mask |= 1 << idx
            through[idx][slot[g]] = li
        masks.append(mask)
    return IncidenceStructure(n, m, size, lines, tuple(masks), tuple(map(tuple, through)))


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


class GroupSummary(Frozen):
    """Exact collineation-group data: total order, the affine subgroup
    order and its index, the node count of the search, and the stabilizer
    of 0 as a base and strong generating set.  `base` lists the nonzero
    points in the search's order, `orbits[i]` is the orbit length of
    base[i] under the maps fixing 0 and base[:i], and the maps among
    `generators` that fix base[:i] generate that stabilizer."""

    __slots__ = (
        "order", "affine_order", "index", "nodes", "base", "orbits", "generators"
    )

    def stabilizer(self, level: int = 0) -> Iterator[tuple[int, ...]]:
        """Every collineation fixing 0 and base[:level], each once, as the
        products u_level∘…∘u_last of one map per level taking that level's
        base point to each point of its orbit.  Level 2 gives the normalized
        maps, which fix 0, e1 and e2."""
        base, gens = self.base, self.generators
        identity = tuple(range(len(base) + 1))
        levels = [_level(g, base) for g in gens]
        factors = []
        for i in range(level, len(base)):
            if self.orbits[i] > 1:
                here = [g for g, j in zip(gens, levels) if j >= i]
                factors.append(tuple(_transversal(base[i], here, identity).values()))

        def expand(perm, i):
            if i == len(factors):
                yield perm
                return
            for u in factors[i]:
                yield from expand(tuple(perm[x] for x in u), i + 1)

        return expand(identity, 0)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _level(g: tuple[int, ...], base) -> int:
    """The index of the first base point g moves."""
    return next(i for i, q in enumerate(base) if g[q] != q)


def _transversal(p: int, gens, identity: tuple[int, ...]) -> dict:
    """{q: a product of gens taking p to q} over the orbit of p."""
    reps = {p: identity}
    queue = [p]
    for q in queue:
        u = reps[q]
        for g in gens:
            if g[q] not in reps:
                reps[g[q]] = tuple(g[x] for x in u)
                queue.append(g[q])
    return reps


def _search_base(inc: IncidenceStructure) -> list[int]:
    """The nonzero points in the search's order: e1, e2, e1 + e2, then
    always the first point on the most lines that hold two or more points
    already placed.  The order depends on which points are placed, never
    on their images, so every branch of the search follows it."""
    size, m = inc.size, inc.m
    count = [mask & 1 for mask in inc.masks]  # 0 is placed first
    score = [-size] + [0] * (size - 1)
    base = []
    for depth in range(size - 1):
        # the indices of e1, e2 and e1 + e2 come first
        p = (m, 1, m + 1)[depth] if depth < 3 else score.index(max(score))
        base.append(p)
        score[p] -= size
        for li in inc.through[p]:
            count[li] += 1
            if count[li] == 2:
                for q in _iter_bits(inc.masks[li]):
                    score[q] += 1
    return base


def _search(inc: IncidenceStructure, budget: int):
    """The stabilizer of 0 by orbits along _search_base (Sims): (base, orbit
    lengths, strong generators, nodes), or BudgetExceededError.

    The identity is placed along the whole base once; then the levels are
    taken from the deepest up, each undoing one base point.  At level i the
    orbit of base[i] under the generators fixing base[:i] is grown: each
    candidate image outside it and not yet ruled out gets a search for one
    completion, which becomes a new generator, or, when there is none,
    rules out its whole orbit.  The search finds every generator itself.
    A line holds the bitmask of its placed images, and its image f(L) once
    exactly one line holds them all; a placement is refused when no line
    holds them, or when f(L) has |f(L) ∩ f(L')| ≠ |L ∩ L'| for a line L'
    with an image, as a collineation is a bijection.  Candidates lie on the
    image of each line through the point.  Lines are cosets, so the lines
    through a and b are through[a][j] for the slots j in dirs[b - a].  A
    map fixing 0 takes the lines through 0 and p one-to-one onto those
    through 0 and f(p), so a candidate also has as many of them as p."""
    size, m = inc.size, inc.m
    through = inc.through
    masks = inc.masks
    incident = [sorted(t) for t in through]  # line order refuses sooner
    masks_at = [[masks[li] for li in t] for t in through]
    base = _search_base(inc)
    identity = tuple(range(size))

    dirs = [[j for j, li in enumerate(through[0]) if masks[li] >> d & 1]
            for d in range(size)]
    lines0 = [len(dirs[x]) for x in range(1, size)]
    same = {}  # lines through 0 and x -> the points x with that many
    for x, k in enumerate(lines0, 1):
        same[k] = same.get(k, 0) | 1 << x
    allowed0 = [0] + [same[k] for k in lines0]

    img = [0] * size
    used = 1
    line_imgs = [mask & 1 for mask in masks]  # 0 is its own image
    line_to = [-1] * len(masks)  # the mask of f(L); -1, every point, while unknown
    recorded = []  # the lines L with f(L) known, in the order found
    marks = []  # len(recorded) before each placement not yet undone
    nodes = 0

    def assign(p: int, v: int) -> bool:
        """Place v as p's image; False when that is refused.  Either way
        `undo(p, v)` takes the placement back."""
        nonlocal nodes, used
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes)
        img[p] = v
        bit = 1 << v
        used |= bit
        marks.append(len(recorded))
        for li in incident[p]:
            line_imgs[li] = got = line_imgs[li] | bit
            rest = got & (got - 1)
            if not rest or line_to[li] != -1:
                continue
            # every line holding all of got passes through its two lowest
            a = (got & -got).bit_length() - 1
            b = (rest & -rest).bit_length() - 1
            here = masks_at[a]
            holders = [here[j] for j in dirs[b - a + m * (b % m < a % m)]
                       if got & ~here[j] == 0]  # b ⊖ a, as a < b
            if len(holders) != 1:
                if holders:
                    continue
                return False
            to, mask = holders[0], masks[li]
            for lj in recorded:
                if (mask & masks[lj]).bit_count() != (to & line_to[lj]).bit_count():
                    return False
            line_to[li] = to
            recorded.append(li)
        return True

    def undo(p: int, v: int):
        nonlocal used
        keep = ~(1 << v)  # a refused placement left some lines without v
        used &= keep
        for li in incident[p]:
            line_imgs[li] &= keep
        mark = marks.pop()
        for li in recorded[mark:]:
            line_to[li] = -1
        del recorded[mark:]

    def candidates(p: int) -> int:
        allowed = allowed0[p] & ~used
        for li in incident[p]:
            allowed &= line_to[li]
        return allowed

    def completion(depth: int):
        """The first map extending the placed base[:depth], or None; the
        placements are left as found."""
        trail = []  # (point, image, candidates not yet tried) per depth
        while depth < len(base):
            p, todo = base[depth], candidates(base[depth])
            while True:
                while not todo:
                    if not trail:
                        return None
                    p, v, todo = trail.pop()
                    undo(p, v)
                    depth -= 1
                v = (todo & -todo).bit_length() - 1
                todo ^= 1 << v
                if assign(p, v):
                    break
                undo(p, v)
            trail.append((p, v, todo))
            depth += 1
        perm = tuple(img)
        for p, v, _ in reversed(trail):
            undo(p, v)
        return perm

    gens = []
    for p in base:
        assign(p, p)
    orbits = [1] * len(base)
    for level in reversed(range(len(base))):
        p = base[level]
        undo(p, p)
        here = [g for j, g in gens if j >= level]
        orbit = _transversal(p, here, identity)
        dead = set()
        for v in _iter_bits(candidates(p)):
            if v in orbit or v in dead:
                continue
            perm = completion(level + 1) if assign(p, v) else None
            undo(p, v)
            if perm is None:
                dead.update(_transversal(v, here, identity))
            else:
                gens.append((level, perm))
                here.append(perm)
                orbit = _transversal(p, here, identity)
        orbits[level] = len(orbit)
    return tuple(base), tuple(orbits), tuple(g for _, g in gens), nodes


def collineation_group(
    n: int, m: int, workers: int = 1, budget: int | None = None
) -> GroupSummary:
    """Exact order of the full collineation group of the (n, m) grid: the
    translations are transitive on the points, so the order is m^2 times
    that of the stabilizer of 0, which `_search` counts orbit by orbit.
    `workers` is accepted and changes nothing.  The budget caps the nodes,
    and the search stops at node budget + 1; a negative budget is refused.
    A grid whose table would hold more than MAX_POINTS point-line
    incidences is refused before any of it is built."""
    if n != 2:
        raise ValueError("exhaustive search is implemented for dimension 2 only")
    _check_grid(n, m)
    if budget is not None and budget < 0:
        raise ValueError(f"search budget {budget} is negative")
    size = m**n
    # a point is on prod p^((k-1)(n-1))(p^n - 1)/(p - 1) lines, m = prod p^k;
    # a grid of more than MAX_POINTS points is refused without factoring m
    if size > MAX_POINTS or size * prod(
        p ** ((k - 1) * (n - 1)) * (p**n - 1) // (p - 1) for p, k in _factorize(m)
    ) > MAX_POINTS:
        raise ValueError(f"the table would exceed {MAX_POINTS} point-line incidences")
    base, orbits, generators, nodes = _search(
        build_incidence(n, m), DEFAULT_NODE_BUDGET if budget is None else budget
    )
    order = size * prod(orbits)
    affine = affine_group_order(n, m)
    if order % affine:
        raise AssertionError("affine subgroup order does not divide group order")
    return GroupSummary(
        order=order,
        affine_order=affine,
        index=order // affine,
        nodes=nodes,
        base=base,
        orbits=orbits,
        generators=generators,
    )

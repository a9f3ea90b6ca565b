"""Discrete torus incidence structures and their full collineation groups.

Points are the m^n residue tuples.  Lines are the cosets of the order-m
cyclic subgroups whose generators lift to primitive integer directions --
exactly the grid shadows of rational torus lines.  The group computation is
exhaustive backtracking with incidence propagation, so reported orders are
exact, never estimates.  GL_2(Z/m) fixes 0 and permutes the lines, so the
search runs one task per orbit of the image of e1 -- one per proper divisor
d of m, pinning e1 to (d, 0) -- and weights it by the orbit's size.  With
two or more workers the tasks fan out to forked children, which inherit the
incidence structure and send their results back through pipes.
"""

from __future__ import annotations

import marshal
import os
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import gcd, prod

from .affine import AffineTorusAuto
from .intmat import identity
from .ratpoint import MAX_POINTS, Frozen, RatPoint, origin

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

    Exists whenever gcd(gen, m) = 1 and, in dimension 1, gen = +-1 mod m.
    gen[1] shifts by t*m, t the product of the primes of a = gen[0] (or m
    for 0) that miss some later entry; the other primes of a divide every
    later entry, so they are prime to m and to t and miss gen[1] + t*m.
    """
    if gcd(*gen, m) != 1:
        raise ValueError("generator shares a factor with the modulus")
    if len(gen) == 1:
        if (gen[0] - 1) % m and (gen[0] + 1) % m:
            raise ValueError("a one-dimensional lift must be +-1 mod m")
        return (1,) if (gen[0] - 1) % m == 0 else (-1,)
    a = gen[0] or m
    t = prod(p for p, _ in _factorize(abs(a)) if any(x % p for x in gen[1:]))
    return (a, gen[1] + t * m, *gen[2:])


def line_points(
    base: tuple[int, ...], gen: tuple[int, ...], m: int
) -> list[tuple[int, ...]]:
    """The points base + k·gen of a line, for k = 0 … m−1."""
    return [tuple((b + k * g) % m for b, g in zip(base, gen)) for k in range(m)]


class DiscreteLine(Frozen):
    """A coset of an order-m cyclic subgroup with primitive-liftable
    generator, stored canonically: lex-least generator, lex-least base.
    ``points`` lists the line's points in order; equality ignores it."""

    __slots__ = ("n", "m", "generator", "base", "points")
    _uncompared = ("points",)

    def __init__(
        self, n: int, m: int, generator: tuple[int, ...], base: tuple[int, ...]
    ):
        if len(generator) != n or len(base) != n:
            raise ValueError("dimension mismatch")
        if gcd(*generator, m) != 1:
            raise ValueError("generator shares a factor with the modulus")
        gen = canonical_generator(generator, m)
        pts = sorted(line_points(base, gen, m))
        super().__init__(n, m, gen, pts[0], tuple(pts))


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


def enumerate_discrete_lines(
    n: int, m: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All discrete lines of the m-grid on the n-torus, each once, lazily,
    as the canonical (base, generator) pairs of DiscreteLine, in order."""
    if m < 3:
        raise ValueError("modulus too small")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    gens = _generators(n, m)
    return (
        (p, g) for p in iproduct(range(m), repeat=n) for g in gens if _is_base(p, g, m)
    )


class IncidenceStructure(Frozen):
    """Immutable incidence data for one (n, m) grid: the lines, a point
    bitmask per line, the incident lines per point, and the lines through
    each point pair (a dict, so the structure has no hash)."""

    __slots__ = ("n", "m", "size", "lines", "masks", "through", "pair_lines")


@lru_cache(maxsize=None)
def build_incidence(n: int, m: int) -> IncidenceStructure:
    lines = tuple(DiscreteLine(n, m, g, p) for p, g in enumerate_discrete_lines(n, m))
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


def affine_table(phi: AffineTorusAuto, n: int, m: int) -> tuple[int, ...]:
    """The image index of every m-grid point under phi, in lexicographic
    point order.  phi may be integral or modulo m.

    Image coordinate k is built for the whole grid at once, one source axis
    at a time, as its share r·m^(n-1-k) of the flat index; the n shares are
    then summed point by point.  Raises ValueError when phi moves 0 off the
    grid (m·b not integral).
    """
    if phi.dim != n:
        raise ValueError("dimension mismatch")
    shifts = [b * m for b in phi.translation.coords]
    if any(s.denominator != 1 for s in shifts):
        raise ValueError("map does not preserve this grid")
    shares = []
    for k, (row, s) in enumerate(zip(phi.matrix, shifts)):
        # One object per residue, shared by every point, keeps memory flat.
        share = [r * m ** (n - 1 - k) for r in range(m)]
        vals = [int(s) % m]
        for a in row[:-1]:
            steps = [a * t for t in range(m)]
            vals = [(v + d) % m for v in vals for d in steps]
        steps = [row[-1] * t for t in range(m)]
        shares.append([share[(v + d) % m] for v in vals for d in steps])
    return tuple(map(sum, zip(*shares)))


def is_affine_perm(n: int, m: int, images) -> AffineTorusAuto | None:
    """The unique affine form of a grid permutation, or None.

    b is read off the image of 0 and the matrix columns from the images of
    the unit vectors; the candidate is then checked at every grid point.
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
    if affine_table(phi, n, m) != tuple(images):
        return None
    return phi


class GroupSummary(Frozen):
    """Exact collineation-group data: total order, the affine subgroup
    order and its index, the node count of the search, and permutations
    generating the group: the axis translations, generators of GL_2(Z/m)
    (`linear`), and, per divisor class, the image of e1 its task pinned
    together with the collineations fixing 0 that the task found (`tasks`)."""

    __slots__ = (
        "order", "affine_order", "index", "nodes", "translations", "linear", "tasks"
    )

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        found = tuple(perm for _, perms in self.tasks for perm in perms)
        return self.translations + self.linear + found

    def stabilizer(self) -> Iterator[tuple[int, ...]]:
        """Every collineation fixing 0, ordered by the image f of e1: A_f∘g
        for each g of the task of f's class, where A_f, a product of the
        linear generators, takes the task's pinned image to f (found by a
        breadth-first walk out of each pinned image)."""
        size = len(self.translations[0])
        carry = {first: (tuple(range(size)), perms) for first, perms in self.tasks}
        queue = list(carry)
        for p in queue:
            a, perms = carry[p]
            for gen in self.linear:
                if gen[p] not in carry:
                    carry[gen[p]] = (tuple(gen[x] for x in a), perms)
                    queue.append(gen[p])
        for f in range(1, size):
            a, perms = carry[f]
            for perm in perms:
                yield tuple(a[x] for x in perm)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _search(inc: IncidenceStructure, first: int, budget: int):
    """Backtracking count of collineations fixing 0 whose image of e1 is
    pinned to `first`.  Returns (stabilizer permutations, nodes) or raises
    BudgetExceededError.  A line's only state is the bitmask of its images;
    `assign` needs no check, because candidates lie on a line holding every
    image of each line through the point, and any two distinct points share
    a line."""
    size = inc.size
    through = inc.through
    masks = inc.masks
    pair_lines = inc.pair_lines
    members = [tuple(_iter_bits(mask)) for mask in masks]
    full = (1 << size) - 1

    img = [0] * size  # filled in as points are assigned; 0 maps to 0
    used = 1
    line_imgs = [mask & 1 for mask in masks]  # 0 is its own image
    # score[q] counts the lines through q (fewer than size) that hold two or
    # more images, less size once q is assigned: the first highest is next
    score = [-size] + [0] * (size - 1)
    e1, e2, e12 = (point_index(p, inc.m) for p in ((1, 0), (0, 1), (1, 1)))

    perms = []
    nodes = 0

    def assign(p: int, v: int):
        nonlocal nodes, used
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes)
        img[p] = v
        score[p] -= size
        bit = 1 << v
        used |= bit
        for li in through[p]:
            got = line_imgs[li]
            if got and not got & (got - 1):
                for q in members[li]:
                    score[q] += 1
            line_imgs[li] = got | bit

    def undo(p: int, v: int):
        nonlocal used
        score[p] += size
        bit = 1 << v
        used ^= bit
        for li in through[p]:
            got = line_imgs[li] ^ bit
            line_imgs[li] = got
            if got and not got & (got - 1):
                for q in members[li]:
                    score[q] -= 1

    def candidates(p: int) -> int:
        allowed = full
        for li in through[p]:
            got = line_imgs[li]
            rest = got & (got - 1)
            if not rest:
                continue
            # every line holding all of got passes through its two lowest
            key = ((got & -got).bit_length() - 1, (rest & -rest).bit_length() - 1)
            union = 0
            for ci in pair_lines[key]:
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
        return score.index(max(score))

    def dfs(depth: int):
        if depth == size:
            perms.append(tuple(img))
            return
        p = next_point(depth)
        for v in _iter_bits(candidates(p)):
            assign(p, v)
            dfs(depth + 1)
            undo(p, v)

    assign(e1, first)
    dfs(2)
    return perms, nodes


def _search_task(args):
    """(stabilizer permutations, nodes), with None for the permutations
    when the task ran past its budget."""
    n, m, first, budget = args
    try:
        return _search(build_incidence(n, m), first, budget)
    except BudgetExceededError as err:
        return None, err.nodes


def _fork_task(task) -> tuple[int, int]:
    """Run _search_task(task) in a forked child that writes the marshalled
    result to a pipe and leaves by os._exit, so that it neither flushes the
    parent's stdio nor runs its exit hooks.  Returns (pid, read end)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as out:
                out.write(marshal.dumps(_search_task(task)))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _join_oldest(children: list[tuple[int, int]]):
    """Read and reap the oldest child of _fork_task and drop it from
    children; its result, or RuntimeError when it ended without one."""
    pid, read = children[0]
    with open(read, "rb", closefd=False) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    children.pop(0)
    os.close(read)
    if status or not data:
        raise RuntimeError("a search worker ended without a result")
    return marshal.loads(data)


def _gl2_generators(m: int) -> list[tuple[tuple[int, int], ...]]:
    """Generators of GL_2(Z/m): the two elementary transvections generate
    SL_2(Z/m), onto which SL_2(Z) maps, and diag(u, 1) adds the
    determinants, for u in a greedy generating set of the units mod m."""
    gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    reached = {1}
    for u in _units(m):
        if u not in reached:
            gens.append(((u, 0), (0, 1)))
            grown, power = set(reached), u
            while power != 1:
                grown |= {r * power % m for r in reached}
                power = power * u % m
            reached = grown
    return gens


def _divisor_classes(n: int, m: int) -> list[tuple[int, int]]:
    """(d, weight) for each proper divisor d of m, where weight counts the
    nonzero points f with gcd(f, m) = d.  These are the orbits of GL_n(Z/m)
    on the nonzero points: each such f is d times a unimodular vector."""
    weights = Counter(gcd(*p, m) for p in iproduct(range(m), repeat=n))
    return [(d, weights[d]) for d in range(1, m) if m % d == 0]


def collineation_group(
    n: int, m: int, workers: int = 1, budget: int | None = None
) -> GroupSummary:
    """Exact order of the full collineation group of the (n, m) grid, by
    exhaustive search over the point stabilizer and orbit-stabilizer with
    the translations.  A linear A maps the stabilizer elements with e1 -> f
    one-to-one onto those with e1 -> Af, so one task per proper divisor d of
    m pins e1 to (d, 0) and counts for every f with gcd(f, m) = d.
    Deterministic for any worker count.  With two or more workers and two
    or more proper divisors of m, each task runs in a forked child, at most
    `workers` at a time, and the results are folded in task order.  The
    budget caps the folded total: one worker gives each task what is left;
    a forked task gets the whole budget, and the first result, in task
    order, that takes the total past it stops the search and kills the
    children still running.  A grid whose table would hold more than
    MAX_POINTS point pairs is refused before any of it is built."""
    if n != 2:
        raise ValueError("exhaustive search is implemented for dimension 2 only")
    size = m**n
    pairs = size * (size - 1) // 2
    if pairs > MAX_POINTS:
        raise ValueError(
            f"the incidence table would hold {pairs} point pairs, "
            f"more than {MAX_POINTS}"
        )
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    build_incidence(n, m)  # before any fork, so that workers inherit it
    classes = _divisor_classes(n, m)
    firsts = [point_index((d, 0), m) for d, _ in classes]
    workers = min(workers, len(firsts), os.cpu_count() or 1)
    found = []
    total_nodes = 0

    def take(perms, nodes):
        nonlocal total_nodes
        total_nodes += nodes
        if perms is None or total_nodes > budget:
            raise BudgetExceededError(total_nodes)
        found.append(tuple(perms))

    if workers <= 1:
        for first in firsts:
            take(*_search_task((n, m, first, budget - total_nodes)))
    else:
        from signal import SIGKILL

        children = []  # (pid, read end) of each running task, oldest first
        try:
            for first in firsts:
                children.append(_fork_task((n, m, first, budget)))
                if len(children) == workers:
                    take(*_join_oldest(children))
            while children:
                take(*_join_oldest(children))
        finally:
            for pid, read in children:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
                os.close(read)
    order = size * sum(w * len(perms) for (_, w), perms in zip(classes, found))
    affine = affine_group_order(n, m)
    if order % affine:
        raise AssertionError("affine subgroup order does not divide group order")
    unit = identity(n)
    steps = (RatPoint(tuple(Fraction(c, m) for c in e)) for e in unit)
    translations = tuple(
        affine_table(AffineTorusAuto(unit, step, m), n, m) for step in steps
    )
    linear = tuple(
        affine_table(AffineTorusAuto(a, origin(n), m), n, m)
        for a in _gl2_generators(m)
    )
    return GroupSummary(
        order=order,
        affine_order=affine,
        index=order // affine,
        nodes=total_nodes,
        translations=translations,
        linear=linear,
        tasks=tuple(zip(firsts, found)),
    )

"""Grid value tables and the oracles that check CLI reports against them.

Everything here is the benchmark's own integer arithmetic: tables are
generated, written and read without the library, and every verdict the
program prints is re-derived from the table it was given.  A table is a
list ``images`` of flat point indices in lexicographic order (first
coordinate most significant), the order ``TORUSMAP v1`` records use.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd


def index_of(p, m: int) -> int:
    idx = 0
    for c in p:
        idx = idx * m + c % m
    return idx


def point_of(idx: int, n: int, m: int) -> tuple[int, ...]:
    coords = []
    for _ in range(n):
        idx, c = divmod(idx, m)
        coords.append(c)
    return tuple(reversed(coords))


def _det(a) -> int:
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * _det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
    )


def apply_affine(a, shift, p, m: int) -> tuple[int, ...]:
    return tuple(
        (sum(x * y for x, y in zip(row, p)) + s) % m for row, s in zip(a, shift)
    )


def affine_table(rng: random.Random, n: int, m: int):
    """A random affine bijection x -> Ax + s of (Z/m)^n: (A, s, images)."""
    while True:
        a = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
        if gcd(_det(a), m) == 1:
            break
    shift = [rng.randrange(m) for _ in range(n)]
    images = [
        index_of(apply_affine(a, shift, p, m), m) for p in product(range(m), repeat=n)
    ]
    return a, shift, images


def perturbed_table(rng: random.Random, n: int, m: int) -> list[int]:
    """An affine table with one transposition of two images."""
    images = affine_table(rng, n, m)[2]
    i, j = rng.sample(range(len(images)), 2)
    images[i], images[j] = images[j], images[i]
    return images


def random_table(rng: random.Random, n: int, m: int) -> list[int]:
    images = list(range(m**n))
    rng.shuffle(images)
    return images


def emit(n: int, m: int, images) -> str:
    out = ["TORUSMAP v1", f"n={n} m={m}"]
    for idx, image in enumerate(images):
        src = " ".join(map(str, point_of(idx, n, m)))
        out.append(src + " -> " + " ".join(map(str, point_of(image, n, m))))
    return "\n".join(out) + "\n"


def read(text: str, n: int, m: int) -> list[int]:
    """The images of a TORUSMAP v1 document of the expected size; raises
    ValueError unless it is well formed, ordered and a bijection."""
    lines = text.split("\n")
    if lines[:2] != ["TORUSMAP v1", f"n={n} m={m}"] or lines[-1] != "":
        raise ValueError("bad TORUSMAP header or trailer")
    records = lines[2:-1]
    if len(records) != m**n:
        raise ValueError("wrong record count")
    images = []
    for idx, record in enumerate(records):
        src, arrow, dst = record.partition(" -> ")
        if not arrow or tuple(map(int, src.split(" "))) != point_of(idx, n, m):
            raise ValueError(f"record {idx} out of order")
        target = tuple(map(int, dst.split(" ")))
        if len(target) != n or not all(0 <= c < m for c in target):
            raise ValueError(f"record {idx} has a bad target")
        images.append(index_of(target, m))
    if len(set(images)) != len(images):
        raise ValueError("table is not a bijection")
    return images


def is_affine(n: int, m: int, images) -> bool:
    """Does the table agree everywhere with the affine map read off the
    images of 0 and of the unit vectors?"""
    shift = point_of(images[0], n, m)
    cols = []
    for axis in range(n):
        e = tuple(int(i == axis) for i in range(n))
        cols.append([(y - s) % m for y, s in zip(point_of(images[index_of(e, m)], n, m), shift)])
    a = [[col[r] for col in cols] for r in range(n)]
    return check_affine_map(a, shift, n, m, images)


def check_affine_map(a, shift, n: int, m: int, images) -> bool:
    return all(
        index_of(apply_affine(a, shift, p, m), m) == images[idx]
        for idx, p in enumerate(product(range(m), repeat=n))
    )


def _fields(line: str, tag: str) -> list[str]:
    head, _, rest = line.partition(" ")
    if head != tag:
        raise ValueError(f"expected {tag!r} line, got {line!r}")
    return rest.split(" ")


def check_affine_report(text: str, n: int, m: int, images) -> bool:
    """Apply the printed A and b to every grid point and compare with the
    table."""
    lines = text.split("\n")
    if lines[:2] != ["AFFINE", f"n={n} m={m}"] or len(lines) != n + 4:
        return False
    a = [[int(x) for x in _fields(line, "A")] for line in lines[2 : 2 + n]]
    b = [Fraction(x) * m for x in _fields(lines[2 + n], "b")]
    if any(len(row) != n for row in a) or len(b) != n or any(x.denominator != 1 for x in b):
        return False
    return check_affine_map(a, [int(x) for x in b], n, m, images)


def _cyclic(g, m: int) -> set[tuple[int, ...]]:
    return {tuple(k * x % m for x in g) for k in range(m)}


def collinear(points, n: int, m: int) -> bool:
    """Brute force: does some discrete line (a coset of <g> with
    gcd(g, m) = 1) contain every one of the points?"""
    first = points[0]
    diffs = [tuple((x - y) % m for x, y in zip(q, first)) for q in points[1:]]
    for g in product(range(m), repeat=n):
        if gcd(*g, m) != 1:
            continue
        sub = _cyclic(g, m)
        if all(d in sub for d in diffs):
            return True
    return False


def check_witness(points, base, gen, n: int, m: int, images, claimed=None) -> bool:
    """Three distinct points on the line base + <gen> whose images (as the
    table says, and as claimed when given) lie on no discrete line."""
    if len(set(points)) != 3 or gcd(*gen, m) != 1:
        return False
    on_line = _cyclic(gen, m)
    if any(tuple((x - y) % m for x, y in zip(p, base)) not in on_line for p in points):
        return False
    targets = [point_of(images[index_of(p, m)], n, m) for p in points]
    if claimed is not None and list(claimed) != targets:
        return False
    return not collinear(targets, n, m)


def check_witness_report(text: str, n: int, m: int, images) -> bool:
    lines = text.split("\n")
    if lines[:2] != ["WITNESS", f"n={n} m={m}"] or len(lines) != 8:
        return False
    base = tuple(map(int, _fields(lines[2], "line_base")))
    gen = tuple(map(int, _fields(lines[3], "line_dir")))
    points, claimed = [], []
    for line in lines[4:7]:
        src, _, dst = " ".join(_fields(line, "p")).partition(" -> ")
        points.append(tuple(map(int, src.split(" "))))
        claimed.append(tuple(map(int, dst.split(" "))))
    return check_witness(points, base, gen, n, m, images, claimed)


# Rows of the README "Measured collineation groups" table: m -> (order,
# affine order, index).
SEARCH_TABLE = {
    3: (432, 432, 1),
    4: (6144, 1536, 4),
    5: (12000, 12000, 1),
    6: (10368, 10368, 1),
    7: (98784, 98784, 1),
}


def agl2_order(m: int) -> int:
    """|AGL_2(Z/m)| = m^2 * m^4 * prod over primes p | m of (1-1/p)(1-1/p^2)."""
    order = Fraction(m**6)
    p, rest = 2, m
    while rest > 1:
        if rest % p == 0:
            order *= Fraction(p - 1, p) * Fraction(p * p - 1, p * p)
            while rest % p == 0:
                rest //= p
        p += 1
    return int(order)


def parse_search_report(text: str) -> dict[str, int]:
    fields = dict(line.split(" ") for line in text.strip().split("\n"))
    keys = ("collineation_order", "affine_order", "index", "nodes")
    if sorted(fields) != sorted(keys):
        raise ValueError("unexpected search report")
    return {k: int(v) for k, v in fields.items()}


def check_search_report(report: dict[str, int], m: int, affine_group_order) -> bool:
    order, affine, index = SEARCH_TABLE[m]
    return (
        (report["collineation_order"], report["affine_order"], report["index"])
        == (order, affine, index)
        and affine == agl2_order(m) == affine_group_order(2, m)
        and order == affine * index
    )

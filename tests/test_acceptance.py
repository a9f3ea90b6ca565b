"""Full-scale acceptance sweeps.

Each test exercises one advertised guarantee end to end against an
independent oracle and enforces a runtime budget.  Run with ``-v`` for the
per-guarantee pass/fail lines and ``-s`` to see the measured summaries.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import gcd, lcm
from time import perf_counter

import pytest

from torusaffine.affine import AffineTorusAuto
from torusaffine.cli import generate_map, main
from torusaffine.collineation import affine_group_order, collineation_group
from torusaffine.fileformat import emit_torusmap
from torusaffine.geometry import (
    RatPoint,
    block_criterion,
    grid_oracle_count,
    intersection_count_2d,
    is_block,
    line_hyperplane_count,
    line_through,
)
from torusaffine.grid import DiscreteLine, is_affine_perm
from torusaffine.intmat import from_columns
from torusaffine.lattice import (
    hnf,
    is_unimodular,
    primitive_part,
    saturate,
    smith_invariants,
)
from torusaffine.properties import check_paper_properties
from torusaffine.ratpoint import origin
from torusaffine.reconstruction import GridMap, Witness, verify_line_preserving
from torusaffine.subtorus import (
    RationalSubtorus,
    contains_point,
    image_subtorus,
    intersect_subtori,
    line_as_subtorus,
    line_subtorus_count,
)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _dot(u, p):
    return u[0] * p[0] + u[1] * p[1] + u[2] * p[2]


def _scaled_to_ints(coords, scale):
    """The coordinates times scale, which must all be integers."""
    scaled = tuple(c * scale for c in coords)
    assert all(c.denominator == 1 for c in scaled)
    return tuple(map(int, scaled))


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


@cache
def _saturated_rank2_corpus():
    """Every saturated rank-2 lattice in Z^3 whose canonical basis has
    entries bounded by 3, deduplicated by canonical basis."""
    vecs = [v for v in product(range(-3, 4), repeat=3) if any(v)]
    out, seen = [], set()
    for a in vecs:
        for b in vecs:
            lb = hnf([a, b])
            if lb.rank != 2:
                continue
            if any(abs(e) > 3 for v in lb.vectors for e in v):
                continue
            if saturate(lb).vectors != lb.vectors:
                continue
            if lb.vectors in seen:
                continue
            seen.add(lb.vectors)
            out.append(lb)
    return tuple(out)


@cache
def _canonical_dirs3():
    return tuple(
        sorted(
            {
                primitive_part(v)[0]
                for v in product(range(-3, 4), repeat=3)
                if any(v) and gcd(*(abs(c) for c in v)) == 1
            }
        )
    )


def test_intersection_counts_match_grid_histogram():
    t0 = perf_counter()
    dirs = sorted(
        {
            primitive_part((p, q))[0]
            for p in range(-5, 6)
            for q in range(-5, 6)
            if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1
        }
    )
    assert len(dirs) == 40
    grid = [
        RatPoint((Fraction(i, 12), Fraction(j, 12)))
        for i in range(12)
        for j in range(12)
    ]
    lines_by_dir = {}
    for d in dirs:
        distinct = sorted(
            {line_through(p, d) for p in grid}, key=lambda l: l.base.coords
        )
        assert len(distinct) == 12
        lines_by_dir[d] = distinct

    rng = random.Random(7)
    spot = []
    checked = 0
    for d1, d2 in combinations(dirs, 2):
        (p1, q1), (p2, q2) = d1, d2
        big = abs(p1 * q2 - q1 * p2)
        m = 12 * big  # grid fine enough to hold every intersection point
        t1set = {(k * p1 % m) * m + (k * q1 % m) for k in range(m)}
        t2list = [(k * p2 % m, k * q2 % m) for k in range(m)]
        pairs = []
        for l1 in lines_by_dir[d1]:
            for l2 in lines_by_dir[d2]:
                delta = tuple(
                    ((b - a) % 1) * 12
                    for a, b in zip(l1.base.coords, l2.base.coords)
                )
                assert all(c.denominator == 1 for c in delta)
                pairs.append((l1, l2, (int(delta[0]), int(delta[1]))))
        histogram = {}
        for key in {key for _, _, key in pairs}:
            dx, dy = key[0] * big, key[1] * big
            histogram[key] = sum(
                1
                for x, y in t2list
                if ((x + dx) % m) * m + ((y + dy) % m) in t1set
            )
        for l1, l2, key in pairs:
            assert intersection_count_2d(l1, l2).count == histogram[key]
            checked += 1
            if rng.random() < 0.0006:
                spot.append((l1, l2))
    for l1, l2 in spot:
        assert grid_oracle_count(l1, l2) == intersection_count_2d(l1, l2).count
    dt = perf_counter() - t0
    print(
        f"line-pair intersections: {checked} pairs, "
        f"{len(spot)} grid-oracle spot checks, {dt:.1f}s <= 60s"
    )
    assert checked == 780 * 144
    assert len(spot) > 20
    assert dt <= 60


def test_hyperplane_counts_match_literal_enumeration():
    t0 = perf_counter()
    prim = {
        n: [
            v
            for v in product(range(-7, 8), repeat=n)
            if any(v) and gcd(*(abs(c) for c in v)) == 1
        ]
        for n in (2, 3)
    }
    checked = 0
    for n in (2, 3):
        zero = origin(n)
        for v in prim[n]:
            line = line_through(zero, v)
            for axis in range(n):
                got = line_hyperplane_count(line, axis)
                if v[axis] == 0:
                    assert got.is_infinite
                else:
                    k = abs(v[axis])
                    pts = {
                        tuple(Fraction(j * c, k) % 1 for c in v)
                        for j in range(k)
                    }
                    assert got.count == len(pts)
                checked += 1
    rng = random.Random(11)
    shifted = 0
    for _ in range(300):
        n = rng.choice((2, 3))
        v = prim[n][rng.randrange(len(prim[n]))]
        base = RatPoint(tuple(Fraction(rng.randrange(6), 6) for _ in range(n)))
        line = line_through(base, v)
        axis = rng.randrange(n)
        got = line_hyperplane_count(line, axis)
        if v[axis] == 0:
            held = line.base.coords[axis]
            if held == 0:
                assert got.is_infinite
            else:
                assert got.count == 0
        else:
            k = abs(v[axis])
            pts = set()
            for j in range(-k - 1, k + 2):
                t = (Fraction(j) - line.base.coords[axis]) / v[axis]
                if 0 <= t < 1:
                    pts.add(
                        tuple(
                            (b + t * c) % 1
                            for b, c in zip(line.base.coords, v)
                        )
                    )
            assert got.count == len(pts)
        shifted += 1
    dt = perf_counter() - t0
    print(
        f"hyperplane counts: {checked} through-0 cases, "
        f"{shifted} shifted cases, {dt:.1f}s <= 30s"
    )
    assert dt <= 30


def test_affine_round_trip_recovery(tmp_path):
    t0 = perf_counter()
    combos = [(2, 5), (2, 8), (2, 12), (3, 5), (3, 8), (3, 12)]
    recovered = 0
    for i in range(200):
        n, m = combos[i % 6]
        f = generate_map(n, m, seed=i, kind="affine")
        path = tmp_path / f"map{i}.txt"
        path.write_text(emit_torusmap(f), encoding="ascii")
        code, out = _run_cli(["reconstruct", str(path)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "AFFINE"
        assert lines[1] == f"n={n} m={m}"
        rows = []
        for r in range(n):
            toks = lines[2 + r].split()
            assert toks[0] == "A"
            rows.append(tuple(int(x) for x in toks[1:]))
        toks = lines[2 + n].split()
        assert toks[0] == "b"
        shift = RatPoint(tuple(Fraction(x) for x in toks[1:]))
        phi = AffineTorusAuto(tuple(rows), shift, m)
        assert GridMap.from_affine(phi, n, m) == f
        recovered += 1
    dt = perf_counter() - t0
    print(f"affine round trips: {recovered}/200 recovered, {dt:.1f}s <= 60s")
    assert recovered == 200
    assert dt <= 60


def test_perturbed_maps_yield_validating_witnesses(tmp_path):
    t0 = perf_counter()
    validated = 0
    for i in range(100):
        m = 5 if i % 2 == 0 else 7
        f = generate_map(2, m, seed=500 + i, kind="perturbed")
        path = tmp_path / f"perturbed{i}.txt"
        path.write_text(emit_torusmap(f), encoding="ascii")
        code, out = _run_cli(["reconstruct", str(path)])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "WITNESS"
        assert lines[1] == f"n=2 m={m}"
        base = tuple(int(x) for x in lines[2].split()[1:])
        generator = tuple(int(x) for x in lines[3].split()[1:])
        points = []
        for row in lines[4:7]:
            toks = row.split()
            assert toks[0] == "p" and toks[3] == "->"
            p = (int(toks[1]), int(toks[2]))
            assert f.image_of(p) == (int(toks[4]), int(toks[5]))
            points.append(p)
        witness = Witness(tuple(points), DiscreteLine(2, m, generator, base))
        assert witness.validate(f)
        validated += 1
    dt = perf_counter() - t0
    print(f"perturbed maps: {validated}/100 witnesses validate, {dt:.1f}s <= 60s")
    assert validated == 100
    assert dt <= 60


@pytest.mark.parametrize("n,m", [(2, 64), (2, 256), (3, 24)])
def test_large_perturbed_table_reconstructs_within_gate(tmp_path, n, m):
    # a global incidence table at (2, 64) costs about 30 s and 2.5 GB, and
    # materialising every line before the scan about 70 s at (2, 256), so
    # this gate fails if reconstruct ever does either again
    f = generate_map(n, m, seed=7, kind="perturbed")
    path = tmp_path / f"perturbed{n}x{m}.txt"
    path.write_text(emit_torusmap(f), encoding="ascii")
    t0 = perf_counter()
    code, out = _run_cli(["reconstruct", str(path)])
    dt = perf_counter() - t0
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == ["WITNESS", f"n={n} m={m}"]
    base = tuple(int(x) for x in lines[2].split()[1:])
    generator = tuple(int(x) for x in lines[3].split()[1:])
    line = {
        tuple((b + k * g) % m for b, g in zip(base, generator)) for k in range(m)
    }
    points = [tuple(int(x) for x in row.split()[1 : n + 1]) for row in lines[4:7]]
    assert len(set(points)) == 3 and set(points) <= line
    assert_images_on_no_line(f, points)
    print(f"perturbed ({n},{m}) witness in {dt:.1f}s <= 20s")
    assert dt <= 20


def test_late_breaking_table_reconstructs_within_gate(tmp_path):
    # the identity on T^2 with (0, m-1) and (0, m-2) swapped: every line
    # before the witness line in (base, generator) order maps onto itself,
    # so reconstruct walks almost all of them first
    m = 127
    images = list(range(m * m))
    images[m - 1], images[m - 2] = images[m - 2], images[m - 1]
    f = GridMap(2, m, tuple(images))
    path = tmp_path / "late2x127.txt"
    path.write_text(emit_torusmap(f), encoding="ascii")
    t0 = perf_counter()
    code, out = _run_cli(["reconstruct", str(path)])
    dt = perf_counter() - t0
    assert (code, out) == (
        1,
        "WITNESS\nn=2 m=127\nline_base 0 125\nline_dir 1 0\n"
        "p 0 125 -> 0 126\np 1 125 -> 1 125\np 2 125 -> 2 125\n",
    )
    assert_images_on_no_line(f, [(0, 125), (1, 125), (2, 125)])
    print(f"late-breaking (2,{m}) witness in {dt:.1f}s <= 20s")
    assert dt <= 20


def assert_images_on_no_line(f, points):
    """Brute-force oracle: no subgroup <g> of order m holds both image
    differences, so the images of the three points lie on no discrete line."""
    n, m = f.n, f.m
    a, b, c = (f.image_of(p) for p in points)
    diffs = [tuple((y - x) % m for x, y in zip(a, q)) for q in (b, c)]
    for g in product(range(m), repeat=n):
        if gcd(*g, m) == 1:
            span = {tuple(k * x % m for x in g) for k in range(m)}
            assert not all(d in span for d in diffs)


def test_block_test_agrees_with_closed_form():
    t0 = perf_counter()
    eighths = [Fraction(k, 8) for k in range(8)]
    half = Fraction(1, 2)
    checked = degenerate = 0
    for x0, x1 in product(eighths, repeat=2):
        if x0 == x1:
            continue
        for y0, y1 in product(eighths, repeat=2):
            if y0 == y1:
                continue
            literal = is_block(
                RatPoint((x0, y0)),
                RatPoint((x1, y0)),
                RatPoint((x0, y1)),
                RatPoint((x1, y1)),
            )
            closed = block_criterion(x0, x1, y0, y1)
            assert literal == closed
            dx, dy = (x1 - x0) % 1, (y1 - y0) % 1
            if dx == dy and (dx + dy) % 1 == 0:
                # both closed-form alternatives coincide: sides of length 1/2
                assert dx == half and dy == half and literal
                degenerate += 1
            checked += 1
    dt = perf_counter() - t0
    print(
        f"blocks on the 8-grid: {checked} quadruples agree, "
        f"{degenerate} side-1/2 degeneracies (both alternatives hold), "
        f"{dt:.1f}s <= 30s"
    )
    assert checked == 3136
    assert degenerate == 64
    assert dt <= 30


def test_search_orders_match_affine_counts_at_primes():
    outputs = []
    for workers in (1, 2, 4):
        t0 = perf_counter()
        code, out = _run_cli(["search", "--m", "3", "--workers", str(workers)])
        dt3 = perf_counter() - t0
        assert code == 0
        assert dt3 <= 5
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    fields = dict(line.split() for line in outputs[0].splitlines())
    assert int(fields["collineation_order"]) == 432 == affine_group_order(2, 3)
    assert int(fields["index"]) == 1

    t0 = perf_counter()
    code, out5 = _run_cli(["search", "--m", "5", "--workers", "2"])
    dt5 = perf_counter() - t0
    assert code == 0
    fields5 = dict(line.split() for line in out5.splitlines())
    assert int(fields5["collineation_order"]) == 12000 == affine_group_order(2, 5)
    assert int(fields5["index"]) == 1
    assert int(fields5["nodes"]) == 140
    print(
        f"search at prime moduli: m=3 order 432 (nodes {fields['nodes']}, "
        f"identical for 1/2/4 workers), m=5 order 12000 in {dt5:.1f}s <= 300s"
    )
    assert dt5 <= 300


def test_search_is_fast_at_primes_11_and_13():
    # each wrong image of e1 + e2 fails within a few nodes once line images
    # and their intersection sizes are propagated
    for m, order in ((11, 1597200), (13, 4429152)):
        t0 = perf_counter()
        got = collineation_group(2, m)
        dt = perf_counter() - t0
        print(f"search at m={m}: order {got.order}, {got.nodes} nodes, {dt:.2f}s < 1s")
        assert got.order == order == affine_group_order(2, m)
        assert dt < 1


def test_every_strong_generator_is_line_preserving():
    # an audit of the search by the reconstruction's own line walk
    t0 = perf_counter()
    audited = 0
    for m in range(3, 18):
        for g in collineation_group(2, m).generators:
            assert verify_line_preserving(GridMap(2, m, g)) is True
            audited += 1
    dt = perf_counter() - t0
    print(f"strong generators at m=3..17: {audited} line-preserving, {dt:.1f}s <= 10s")
    assert dt <= 10


def test_collineations_are_affine_exactly_when_parallels_and_blocks_hold():
    # The grid form of the paper's theorem.  Lines to lines is not enough at
    # m = 4; with parallelism, or with blocks, it is: every collineation
    # fixing 0 at m = 3..6 is affine (by its read-off model, checked at
    # every point) exactly when it keeps parallels and exactly when it
    # keeps blocks.
    t0 = perf_counter()
    counts = {}
    for m in range(3, 7):
        stabilizer = list(collineation_group(2, m).stabilizer())
        affine = 0
        for perm in stabilizer:
            report = check_paper_properties(GridMap(2, m, perm))
            is_affine = is_affine_perm(2, m, perm) is not None
            assert report.parallels_preserved == report.blocks_preserved == is_affine
            affine += is_affine
        counts[m] = (len(stabilizer), affine)
    dt = perf_counter() - t0
    # (stabilizer size, affine among them): |GL_2(Z/m)| affine maps fix 0
    assert counts == {3: (48, 48), 4: (384, 96), 5: (480, 480), 6: (288, 288)}
    print(
        f"collineations fixing 0 at m = 3..6: {sum(s for s, _ in counts.values())} "
        f"maps, affine exactly when parallels and blocks hold, {dt:.1f}s <= 60s"
    )
    assert dt <= 60


def test_normalized_collineations_are_affine_exactly_when_parallels_and_blocks_hold():
    # The same theorem at m = 7, 8 and 9, over the normalized collineations
    # (those fixing 0, e1 and e2).  Every collineation is one affine map
    # after exactly one of them, and an affine map changes neither
    # property, so they stand for the whole group.
    t0 = perf_counter()
    counts = {}
    for m in (7, 8, 9):
        affine = 0
        normalized = list(collineation_group(2, m).stabilizer(2))
        for perm in normalized:
            report = check_paper_properties(GridMap(2, m, perm))
            is_affine = is_affine_perm(2, m, perm) is not None
            assert report.parallels_preserved == report.blocks_preserved == is_affine
            affine += is_affine
        counts[m] = (len(normalized), affine)
    dt = perf_counter() - t0
    # (normalized maps, affine among them): the identity is the only affine one
    assert counts == {7: (1, 1), 8: (256, 1), 9: (27, 1)}
    print(
        f"normalized collineations at m = 7, 8, 9: 284 maps, affine exactly "
        f"when parallels and blocks hold, {dt:.1f}s <= 60s"
    )
    assert dt <= 60


def test_line_subtorus_counts_match_grid_oracle():
    t0 = perf_counter()
    lattices = _saturated_rank2_corpus()
    dirs = _canonical_dirs3()
    assert len(lattices) == 425
    assert len(dirs) == 145
    zero = origin(3)
    lines = {v: line_through(zero, v) for v in dirs}

    # membership characters: each saturated corpus lattice is cut out by a
    # primitive normal vector, checked literally against the parametric span
    normals = {}
    for lb in lattices:
        w1, w2 = lb.vectors
        nu, content = primitive_part(_cross(w1, w2))
        assert content == 1
        normals[lb] = nu
    for lb in lattices[::15]:
        nu = normals[lb]
        w1, w2 = lb.vectors
        span = {
            tuple(
                Fraction(i * a + j * b, 6) % 1 for a, b in zip(w1, w2)
            )
            for i in range(6)
            for j in range(6)
        }
        members = {
            p
            for p in product([Fraction(k, 6) for k in range(6)], repeat=3)
            if _dot(nu, p) % 1 == 0
        }
        assert span == members

    checked = 0
    for lb in lattices:
        nu = normals[lb]
        sub = RationalSubtorus(zero, lb)
        for v in dirs:
            k = abs(_dot(nu, v))
            line = lines[v]
            got = line_subtorus_count(line, sub)
            dec = intersect_subtori(line_as_subtorus(line), sub)
            if k == 0:
                assert got.is_infinite
                assert dec is not None
                assert dec.component_count == 1
                assert dec.common_dimension == 1
                assert contains_point(
                    sub, RatPoint(tuple(Fraction(c, 5) for c in v))
                )
            else:
                # the points j*v/k of the line, scaled by k
                pts = {tuple(j * c % k for c in v) for j in range(k)}
                assert len(pts) == k
                cnt = sum(1 for p in pts if _dot(nu, p) % k == 0)
                assert got.count == cnt
                assert dec is not None
                assert dec.component_count == cnt
                assert dec.common_dimension == 0
                rep = dec.representative
                assert tuple(c * k for c in rep.coords) in pts
                assert _dot(nu, rep.coords) % 1 == 0
            checked += 1

    # shifted bases: the oracle enumerates a fine parameter grid literally
    rng = random.Random(23)
    shifted = 0
    for _ in range(400):
        lb = lattices[rng.randrange(len(lattices))]
        nu = normals[lb]
        v = dirs[rng.randrange(len(dirs))]
        anchor = RatPoint(tuple(Fraction(rng.randrange(4), 4) for _ in range(3)))
        base = RatPoint(tuple(Fraction(rng.randrange(6), 6) for _ in range(3)))
        sub = RationalSubtorus(anchor, lb)
        line = line_through(base, v)
        k = abs(_dot(nu, v))
        got = line_subtorus_count(line, sub)
        dec = intersect_subtori(line_as_subtorus(line), sub)
        if k == 0:
            if _dot(nu, tuple(
                b - a for a, b in zip(anchor.coords, line.base.coords)
            )) % 1 == 0:
                assert got.is_infinite
                assert dec is not None and dec.common_dimension == 1
            else:
                assert got.count == 0
                assert dec is None
        else:
            # the points base + j*v/fine, scaled by fine
            fine = 12 * k
            b0 = _scaled_to_ints(line.base.coords, fine)
            a0 = _scaled_to_ints(anchor.coords, fine)
            pts = set()
            for j in range(fine):
                p = tuple((b + j * c) % fine for b, c in zip(b0, v))
                if _dot(nu, tuple(x - a for a, x in zip(a0, p))) % fine == 0:
                    pts.add(p)
            assert got.count == len(pts)
            assert dec is not None and dec.component_count == len(pts)
        shifted += 1
    dt = perf_counter() - t0
    print(
        f"line/subtorus counts: {checked} through-0 pairs, "
        f"{shifted} shifted pairs, {dt:.1f}s <= 120s"
    )
    assert checked == 425 * 145
    assert dt <= 120


def _random_unimodular(rng):
    while True:
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(10):
            i = rng.randrange(3)
            j = rng.randrange(2)
            if j >= i:
                j += 1
            if rng.random() < 0.25:
                rows[i], rows[j] = [-x for x in rows[j]], rows[i]
            else:
                c = rng.choice((-1, 1))
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if all(abs(e) <= 50 for row in rows for e in row):
            return tuple(tuple(row) for row in rows)


def test_subtorus_images_stay_saturated_under_automorphisms():
    t0 = perf_counter()
    lattices = _saturated_rank2_corpus()
    passed = 0
    for i in range(50):
        rng = random.Random(4000 + i)
        mat = _random_unimodular(rng)
        assert is_unimodular(mat)
        shift = RatPoint(tuple(Fraction(rng.randrange(6), 6) for _ in range(3)))
        phi = AffineTorusAuto(mat, shift, None)
        inv = phi.inverse()
        for idx, lb in enumerate(lattices):
            if idx % 7 == 0:
                base = RatPoint(
                    tuple(Fraction(rng.randrange(4), 4) for _ in range(3))
                )
            else:
                base = origin(3)
            sub = RationalSubtorus(base, lb)
            image = image_subtorus(sub, phi)
            assert image.rank == 2
            invs = smith_invariants(from_columns(image.lattice.vectors))
            assert all(d == 1 for d in invs)
            assert hnf(image.lattice.vectors).vectors == image.lattice.vectors
            if idx % 9 == 0:
                w1, w2 = lb.vectors
                for a, b in ((0, 1), (1, 2), (2, 1)):
                    p = RatPoint(
                        tuple(
                            c + Fraction(a * x + b * y, 3)
                            for c, x, y in zip(base.coords, w1, w2)
                        )
                    )
                    assert contains_point(image, phi.apply(p))
                u1, u2 = image.lattice.vectors
                for a, b in ((1, 0), (1, 2)):
                    q = RatPoint(
                        tuple(
                            c + Fraction(a * x + b * y, 3)
                            for c, x, y in zip(image.base.coords, u1, u2)
                        )
                    )
                    assert contains_point(sub, inv.apply(q))
        passed += 1
    dt = perf_counter() - t0
    print(
        f"subtorus images: 50/50 automorphisms keep all "
        f"{len(lattices)} corpus lattices saturated, {dt:.1f}s <= 60s"
    )
    assert passed == 50
    assert dt <= 60

"""Command-line front end.

Subcommands: ``gen`` (emit TORUSMAP v1 test data), ``reconstruct`` (affine
model or witness from a TORUSMAP file), ``intersect`` (exact line
intersection on T^2), ``oracle`` (independent brute-force intersection
count by grid-trace enumeration), ``search`` (exhaustive collineation-group
order), and ``svg`` (static figure from a JSON scene).

Exit codes: 0 success / affine verdict; 1 non-affine verdict (witness or
line-preserving non-affine map); 2 malformed input, or stdout closed before
the output was written; 3 search budget exceeded.  Stdout is deterministic
for identical invocations; wall-clock lines go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING

from .common import MAX_POINTS

# Each subcommand imports the library modules it runs, so a process loads
# only those: reconstruct loads fractions, ratpoint and affine only for an
# affine verdict, search loads none of them, and only search loads the
# collineation search.
if TYPE_CHECKING:
    from .affine import AffineTorusAuto
    from .grid import GridMap
    from .reconstruction import Witness


# ------------------------------------------------------------ helpers


def _parse_pair(text: str, parse, kind: str) -> tuple:
    try:
        pair = tuple(parse(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad {kind} pair {text!r}") from err
    if len(pair) != 2:
        raise ValueError(f"expected two comma-separated {kind}s, got {text!r}")
    return pair


def _read_text(path: str) -> str:
    if path == "-":
        if sys.stdin is None:
            raise ValueError("stdin is closed")
        # Decode stdin as a file is decoded: ASCII, universal newlines.
        sys.stdin.reconfigure(encoding="ascii", newline=None)
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as err:
        raise ValueError(str(err)) from err


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _line_from_args(dir_text: str, base_text: str):
    from .geometry import line_through
    from .ratpoint import parse_rational

    direction = _parse_pair(dir_text, int, "integer")
    if direction == (0, 0):
        raise ValueError("direction must be nonzero")
    return line_through(_parse_pair(base_text, parse_rational, "rational"), direction)


# --------------------------------------------------------------- gen


def generate_map(n: int, m: int, seed: int, kind: str) -> GridMap:
    """Deterministic test-data generator for one seed."""
    import random
    from math import gcd

    from .grid import GridMap, _check_grid, _table
    from .intmat import det

    _check_grid(n, m)
    # m >= 3, so n at or above the ceiling's bit length is already too big;
    # checking that first keeps m**n small.
    if n >= MAX_POINTS.bit_length() or m**n > MAX_POINTS:
        raise ValueError(f"grid m**n is larger than {MAX_POINTS} points")
    rng = random.Random(seed)
    size = m**n
    if kind == "random":
        images = list(range(size))
        rng.shuffle(images)
        return GridMap(n, m, tuple(images))
    while True:
        entries = [rng.randrange(m) for _ in range(n * n)]
        matrix = [entries[r * n : (r + 1) * n] for r in range(n)]
        if gcd(det(matrix), m) == 1:
            break
    shift = [rng.randrange(m) for _ in range(n)]
    f = GridMap(n, m, _table(matrix, shift, n, m))
    if kind == "perturbed":
        images = list(f.images)
        i = rng.randrange(size)
        j = rng.randrange(size - 1)
        if j >= i:
            j += 1
        images[i], images[j] = images[j], images[i]
        f = GridMap(n, m, tuple(images))
    return f


def _cmd_gen(args) -> int:
    from .fileformat import emit_torusmap

    f = generate_map(args.n, args.m, args.seed, args.kind)
    _write_text(args.out, emit_torusmap(f))
    return 0


# ------------------------------------------------------- reconstruct


def _affine_report(phi: AffineTorusAuto, n: int, m: int) -> str:
    lines = ["AFFINE", f"n={n} m={m}"]
    for row in phi.matrix:
        lines.append("A " + " ".join(map(str, row)))
    lines.append("b " + " ".join(str(c) for c in phi.translation.coords))
    return "\n".join(lines) + "\n"


def _witness_report(witness: Witness, n: int, m: int, f: GridMap) -> str:
    lines = ["WITNESS", f"n={n} m={m}"]
    lines.append("line_base " + " ".join(map(str, witness.line.base)))
    lines.append("line_dir " + " ".join(map(str, witness.line.generator)))
    for p in witness.points:
        q = f.image_of(p)
        lines.append(
            "p " + " ".join(map(str, p)) + " -> " + " ".join(map(str, q))
        )
    return "\n".join(lines) + "\n"


def _cmd_reconstruct(args) -> int:
    from .fileformat import parse_torusmap
    from .reconstruction import NonaffineCollineationError, Witness, infer_affine

    f = parse_torusmap(_read_text(args.file))
    try:
        verdict = infer_affine(f)
    except NonaffineCollineationError:
        _write_text(
            args.out,
            f"NONAFFINE\nn={f.n} m={f.m}\nline_preserving true\n",
        )
        return 1
    if isinstance(verdict, Witness):
        _write_text(args.out, _witness_report(verdict, f.n, f.m, f))
        return 1
    _write_text(args.out, _affine_report(verdict, f.n, f.m))
    return 0


# --------------------------------------------- intersect and oracle


def _cmd_intersect(args) -> int:
    from .geometry import intersection_count_2d, intersection_points

    l1 = _line_from_args(args.dir1, args.base1)
    l2 = _line_from_args(args.dir2, args.base2)
    result = intersection_count_2d(l1, l2)
    if result.count is None:
        _write_text(args.out, "count infinite\n")
        return 0
    if result.count > MAX_POINTS:
        raise ValueError(
            f"{result.count} intersection points, more than {MAX_POINTS} to list"
        )
    lines = [f"count {result.count}"]
    if result.count:
        for p in intersection_points(l1, l2):
            lines.append("point " + " ".join(str(c) for c in p.coords))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_oracle(args) -> int:
    from .geometry import grid_oracle_count

    l1 = _line_from_args(args.dir1, args.base1)
    l2 = _line_from_args(args.dir2, args.base2)
    count = grid_oracle_count(l1, l2, max_denominator=args.max_denominator)
    _write_text(args.out, f"count {count}\n")
    return 0


# ------------------------------------------------------------ search


def _cmd_search(args) -> int:
    from .collineation import BudgetExceededError, collineation_group

    start = time.perf_counter()
    try:
        summary = collineation_group(
            2, args.m, workers=args.workers, budget=args.budget
        )
    except BudgetExceededError as err:
        print(f"error: search budget exceeded after {err.nodes} nodes", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - start
    report = (
        f"collineation_order {summary.order}\n"
        f"affine_order {summary.affine_order}\n"
        f"index {summary.index}\n"
        f"nodes {summary.nodes}\n"
    )
    _write_text(args.out, report)
    print(f"runtime {elapsed:.2f}s", file=sys.stderr)
    return 0


# --------------------------------------------------------------- svg


def _cmd_svg(args) -> int:
    import json

    from .svgfig import render_scene

    text = _read_text(args.file)
    try:
        scene = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"scene is not valid JSON: {err}") from err
    _write_text(args.out, render_scene(scene))
    return 0


# -------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusaffine",
        description="Exact affine geometry on tori: data generation, "
        "reconstruction, intersection counts, and group search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a TORUSMAP v1 file")
    gen.add_argument("--n", type=int, default=2, help="torus dimension")
    gen.add_argument("--m", type=int, required=True, help="grid modulus")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--kind",
        choices=("affine", "perturbed", "random"),
        default="affine",
        help="affine map, affine plus one transposition, or uniform permutation",
    )
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    rec = sub.add_parser("reconstruct", help="affine model or witness from a file")
    rec.add_argument("file", help="TORUSMAP v1 path, or - for stdin")
    rec.add_argument("--out", default=None)
    rec.set_defaults(func=_cmd_reconstruct)

    for name, func, extra in (
        ("intersect", _cmd_intersect, "exact intersection of two T^2 lines"),
        ("oracle", _cmd_oracle, "brute-force grid-trace intersection count"),
    ):
        cmd = sub.add_parser(name, help=extra)
        cmd.add_argument("--dir1", required=True, help="integer pair, e.g. 2,3")
        cmd.add_argument("--base1", default="0,0", help="rational pair, e.g. 1/2,0")
        cmd.add_argument("--dir2", required=True)
        cmd.add_argument("--base2", default="0,0")
        if name == "oracle":
            cmd.add_argument(
                "--max-denominator",
                type=int,
                default=MAX_POINTS,
                help="refuse oracle grids finer than this",
            )
        cmd.add_argument("--out", default=None)
        cmd.set_defaults(func=func)

    search = sub.add_parser("search", help="exhaustive collineation-group order")
    search.add_argument("--m", type=int, required=True)
    search.add_argument("--workers", type=int, default=1)
    search.add_argument("--budget", type=int, default=None, help="search node limit")
    search.add_argument("--out", default=None)
    search.set_defaults(func=_cmd_search)

    svg = sub.add_parser("svg", help="render a JSON scene to SVG")
    svg.add_argument("file", help="scene path, or - for stdin")
    svg.add_argument("--out", default=None)
    svg.set_defaults(func=_cmd_svg)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so that
        # the interpreter's final flush of what is still buffered succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except ValueError as err:
        # TorusMapFormatError and SceneError are ValueErrors
        print(f"error: {err}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

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
import json
import os
import random
import sys
import time
from fractions import Fraction
from math import gcd

from .affine import AffineTorusAuto, balanced_residue
from .collineation import BudgetExceededError, collineation_group
from .fileformat import TorusMapFormatError, emit_torusmap, parse_torusmap
from .geometry import (
    MAX_POINTS,
    RatPoint,
    grid_oracle_count,
    intersection_count_2d,
    intersection_points,
    line_through,
)
from .intmat import det
from .reconstruction import (
    GridMap,
    NonaffineCollineationError,
    Witness,
    infer_affine,
)
from .svgfig import SceneError, render_scene


class InputError(Exception):
    """Bad command-line input (exit code 2)."""


# ------------------------------------------------------------ helpers


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as err:
        raise InputError(f"bad integer pair {text!r}") from err
    if len(parts) != 2:
        raise InputError(f"expected two comma-separated integers, got {text!r}")
    return parts


def _parse_rationals(text: str) -> RatPoint:
    try:
        coords = tuple(Fraction(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"bad rational pair {text!r}") from err
    if len(coords) != 2:
        raise InputError(f"expected two comma-separated rationals, got {text!r}")
    return RatPoint(coords)


def _read_text(path: str) -> str:
    if path == "-":
        if sys.stdin is None:
            raise InputError("stdin is closed")
        # Decode stdin as a file is decoded: ASCII, universal newlines.
        sys.stdin.reconfigure(encoding="ascii", newline=None)
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as err:
        raise InputError(str(err)) from err


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _line_from_args(dir_text: str, base_text: str):
    direction = _parse_ints(dir_text)
    if direction == (0, 0):
        raise InputError("direction must be nonzero")
    return line_through(_parse_rationals(base_text), direction)


# --------------------------------------------------------------- gen


def generate_map(n: int, m: int, seed: int, kind: str) -> GridMap:
    """Deterministic test-data generator for one seed."""
    if m < 3:
        raise InputError("modulus too small")
    if n < 2:
        raise InputError("dimension must be at least 2")
    # m >= 3, so n at or above the ceiling's bit length is already too big;
    # checking that first keeps m**n small.
    if n >= MAX_POINTS.bit_length() or m**n > MAX_POINTS:
        raise InputError(f"grid m**n is larger than {MAX_POINTS} points")
    rng = random.Random(seed)
    size = m**n
    if kind == "random":
        images = list(range(size))
        rng.shuffle(images)
        return GridMap(n, m, tuple(images))
    while True:
        entries = [balanced_residue(rng.randrange(m), m) for _ in range(n * n)]
        matrix = tuple(tuple(entries[r * n : (r + 1) * n]) for r in range(n))
        if gcd(det(matrix), m) == 1:
            break
    shift = RatPoint(tuple(Fraction(rng.randrange(m), m) for _ in range(n)))
    f = GridMap.from_affine(AffineTorusAuto(matrix, shift, m), n, m)
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
    f = parse_torusmap(_read_text(args.file))
    try:
        verdict = infer_affine(f)
    except NonaffineCollineationError:
        _write_text(
            args.out,
            f"NONAFFINE\nn={f.n} m={f.m}\nline_preserving true\n",
        )
        return 1
    if isinstance(verdict, AffineTorusAuto):
        _write_text(args.out, _affine_report(verdict, f.n, f.m))
        return 0
    _write_text(args.out, _witness_report(verdict, f.n, f.m, f))
    return 1


# --------------------------------------------- intersect and oracle


def _cmd_intersect(args) -> int:
    l1 = _line_from_args(args.dir1, args.base1)
    l2 = _line_from_args(args.dir2, args.base2)
    result = intersection_count_2d(l1, l2)
    if result.count is None:
        _write_text(args.out, "count infinite\n")
        return 0
    if result.count > MAX_POINTS:
        raise InputError(
            f"{result.count} intersection points, more than {MAX_POINTS} to list"
        )
    lines = [f"count {result.count}"]
    if result.count:
        for p in intersection_points(l1, l2):
            lines.append("point " + " ".join(str(c) for c in p.coords))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_oracle(args) -> int:
    l1 = _line_from_args(args.dir1, args.base1)
    l2 = _line_from_args(args.dir2, args.base2)
    count = grid_oracle_count(l1, l2, max_denominator=args.max_denominator)
    _write_text(args.out, f"count {count}\n")
    return 0


# ------------------------------------------------------------ search


def _cmd_search(args) -> int:
    if args.m < 3:
        raise InputError("modulus too small")
    start = time.perf_counter()
    summary = collineation_group(2, args.m, workers=args.workers, budget=args.budget)
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
    text = _read_text(args.file)
    try:
        scene = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"scene is not valid JSON: {err}") from err
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
    except (InputError, TorusMapFormatError, SceneError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetExceededError as err:
        print(f"error: search budget exceeded after {err.nodes} nodes", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

"""Whole-table grid maps against point-by-point references.

`affine_table`, `emit_torusmap` and `parse_torusmap` work on a whole image
table at once.  Each is checked here against a test-local copy of the
per-point (or per-record, token-by-token) code it replaced; the parser is
also fuzzed with mutated tables, directly and through `reconstruct -`.
"""

import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from time import perf_counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from torusaffine.affine import AffineTorusAuto
from torusaffine.cli import main
from torusaffine.fileformat import (
    HEADER,
    TorusMapFormatError,
    emit_torusmap,
    parse_torusmap,
)
from torusaffine.geometry import RatPoint
from torusaffine.grid import affine_table, index_point, point_index
from torusaffine.intmat import det
from torusaffine.reconstruction import GridMap

# ------------------------------------------------- per-point references


def table_by_points(phi, n, m):
    """The image index of every grid point, one exact `apply` at a time;
    phi may be integral or modulo m."""
    images = []
    for i in range(m**n):
        p = RatPoint(tuple(Fraction(c, m) for c in index_point(i, n, m)))
        scaled = [c * m for c in phi.apply(p).coords]
        assert all(s.denominator == 1 for s in scaled)
        images.append(point_index(tuple(int(s) for s in scaled), m))
    return tuple(images)


def emit_by_records(f):
    lines = [HEADER, f"n={f.n} m={f.m}"]
    for idx in range(f.size):
        source = index_point(idx, f.n, f.m)
        target = index_point(f.images[idx], f.n, f.m)
        lines.append(" ".join(map(str, source)) + " -> " + " ".join(map(str, target)))
    return "\n".join(lines) + "\n"


def _ref_ints(tokens, m):
    out = []
    for tok in tokens:
        body = tok[1:] if tok.startswith("-") else tok
        if not (body.isascii() and body.isdigit()):
            raise TorusMapFormatError(f"bad integer token {tok!r}")
        value = int(tok)
        if not 0 <= value < m:
            raise TorusMapFormatError(f"coordinate {value} outside [0, {m})")
        out.append(value)
    return tuple(out)


def parse_by_tokens(text):
    """The token-by-token parser, every record through the same checks."""
    if not text.endswith("\n"):
        raise TorusMapFormatError("missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != HEADER:
        raise TorusMapFormatError("missing TORUSMAP v1 header")
    if len(lines) < 2:
        raise TorusMapFormatError("missing size line")
    size_match = re.fullmatch(r"n=(\d+) m=(\d+)", lines[1], re.ASCII)
    if not size_match:
        raise TorusMapFormatError("size line must be 'n=<n> m=<m>'")
    n, m = int(size_match.group(1)), int(size_match.group(2))
    if n < 1 or m < 1:
        raise TorusMapFormatError("size line must be 'n=<n> m=<m>'")
    records = lines[2:]
    if m >= 2 and n > len(records).bit_length():
        raise TorusMapFormatError(
            f"n={n} m={m} needs more than the {len(records)} records found"
        )
    if len(records) != m**n:
        raise TorusMapFormatError(f"expected {m**n} records, found {len(records)}")
    images = []
    for idx, record in enumerate(records):
        tokens = record.split(" ")
        if len(tokens) != 2 * n + 1 or tokens[n] != "->":
            raise TorusMapFormatError(f"malformed record {record!r}")
        source = _ref_ints(tokens[:n], m)
        target = _ref_ints(tokens[n + 1 :], m)
        if source != index_point(idx, n, m):
            raise TorusMapFormatError(f"record {record!r} out of lexicographic order")
        images.append(point_index(target, m))
    try:
        return GridMap(n, m, tuple(images))
    except ValueError as err:
        raise TorusMapFormatError(str(err)) from err


# ------------------------------------------------------- affine_table


@st.composite
def modular_maps(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(3, 12 if n < 4 else 8))
    entries = draw(st.lists(st.integers(0, m - 1), min_size=n * n, max_size=n * n))
    matrix = tuple(tuple(entries[r * n : (r + 1) * n]) for r in range(n))
    assume(gcd(det(matrix), m) == 1)
    shift = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    b = RatPoint(tuple(Fraction(c, m) for c in shift))
    return AffineTorusAuto(matrix, b, m), n, m


@given(modular_maps())
@settings(max_examples=80, deadline=None)
def test_affine_table_matches_pointwise_images(case):
    phi, n, m = case
    assert affine_table(phi, n, m) == table_by_points(phi, n, m)


@st.composite
def integral_maps(draw):
    """A unimodular integer matrix (a product of unitriangular ones) and a
    translation on the m-grid, with numerators outside [0, m) too."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(3, 12 if n < 4 else 8))
    coeff = st.integers(-30, 30)
    lower = [
        [draw(coeff) if c < r else int(c == r) for c in range(n)] for r in range(n)
    ]
    upper = [
        [draw(coeff) if c > r else int(c == r) for c in range(n)] for r in range(n)
    ]
    matrix = tuple(
        tuple(sum(lower[r][k] * upper[k][c] for k in range(n)) for c in range(n))
        for r in range(n)
    )
    shift = draw(st.lists(st.integers(-3 * m, 3 * m), min_size=n, max_size=n))
    b = RatPoint(tuple(Fraction(c, m) for c in shift))
    return AffineTorusAuto(matrix, b), n, m


@given(integral_maps())
@settings(max_examples=60, deadline=None)
def test_from_affine_integral_matches_pointwise_images(case):
    phi, n, m = case
    assert GridMap.from_affine(phi, n, m).images == table_by_points(phi, n, m)


def test_affine_table_refuses_off_grid_translation():
    half = Fraction(1, 2)
    phi = AffineTorusAuto(((1, 0), (0, 1)), RatPoint((Fraction(1, 6), half)))
    with pytest.raises(ValueError, match="does not preserve this grid"):
        affine_table(phi, 2, 4)
    assert affine_table(phi, 2, 6) == table_by_points(
        AffineTorusAuto(phi.matrix, phi.translation, 6), 2, 6
    )


# ---------------------------------------------------------- emit/parse


@st.composite
def grid_maps(draw, max_size=1300):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(3, 12))
    assume(m**n <= max_size)
    return GridMap(n, m, tuple(draw(st.permutations(range(m**n)))))


@given(grid_maps())
@settings(max_examples=60, deadline=None)
def test_emit_matches_per_record_emitter(f):
    text = emit_torusmap(f)
    assert text == emit_by_records(f)
    assert parse_torusmap(text) == f


NON_ASCII_DIGITS = ["\u0662", "\u00b2", "\uff12", "\u0660"]  # ٢ ² ２ ٠
ARROWS = ["=>", "- >", "-->", ">"]

TOKEN_MUTATIONS = {
    "leading zero": lambda tok, data: "0" + tok,
    "minus sign": lambda tok, data: "-" + tok,
    "double minus": lambda tok, data: "--" + tok,
    "plus sign": lambda tok, data: "+" + tok,
    "other digit": lambda tok, data: data.draw(st.sampled_from("0123")),
    "non-ascii digit": lambda tok, data: data.draw(st.sampled_from(NON_ASCII_DIGITS)),
}
RECORD_MUTATIONS = {
    "double space": lambda rec, data: rec.replace(" ", "  ", 1),
    "leading space": lambda rec, data: " " + rec,
    "trailing space": lambda rec, data: rec + " ",
    "wrong arrow": lambda rec, data: rec.replace(
        "->", data.draw(st.sampled_from(ARROWS))
    ),
    "carriage return": lambda rec, data: rec + "\r",
    "split record": lambda rec, data: rec.replace(" -> ", "\n-> "),
}


def _swap_records(text, data):
    lines = text.split("\n")
    i = data.draw(st.integers(2, len(lines) - 2))
    j = data.draw(st.integers(2, len(lines) - 2))
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


TEXT_MUTATIONS = {
    "swapped records": _swap_records,
    "crlf document": lambda text, data: text.replace("\n", "\r\n"),
    "dropped newline": lambda text, data: text.replace("\n", "", 1),
    "truncated": lambda text, data: text[: data.draw(st.integers(0, len(text)))],
}


def _mutate(text, data, name):
    lines = text.split("\n")
    if len(lines) < 4:  # truncated down to the size line: nothing to pick
        return text
    if name in TEXT_MUTATIONS:
        return TEXT_MUTATIONS[name](text, data)
    row = data.draw(st.integers(2, len(lines) - 2))
    if name in RECORD_MUTATIONS:
        lines[row] = RECORD_MUTATIONS[name](lines[row], data)
    else:
        tokens = lines[row].split(" ")
        col = data.draw(st.integers(0, len(tokens) - 1))
        tokens[col] = TOKEN_MUTATIONS[name](tokens[col], data)
        lines[row] = " ".join(tokens)
    return "\n".join(lines)


MUTATIONS = sorted({**TOKEN_MUTATIONS, **RECORD_MUTATIONS, **TEXT_MUTATIONS})


@st.composite
def mutated_tables(draw):
    """A valid (2, 3)..(3, 4) table with one to three mutations."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(3, 4))
    perm = draw(st.permutations(range(m**n)))
    text = emit_torusmap(GridMap(n, m, tuple(perm)))
    data = draw(st.data())
    for name in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        text = _mutate(text, data, name)
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except TorusMapFormatError as err:
        return ("error", str(err))


@given(mutated_tables())
@settings(max_examples=400, deadline=None)
def test_parse_fuzz_matches_token_parser(text):
    start = perf_counter()
    got = _outcome(parse_torusmap, text)
    assert perf_counter() - start < 1.0
    assert got == _outcome(parse_by_tokens, text)


def run_stdin(argv, data: bytes):
    """main(argv) with data on stdin; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@given(mutated_tables())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_reconstruct_stdin_fuzz_exits_cleanly(text):
    # An exception escaping main() (a traceback on the command line) fails
    # the test by itself.
    start = perf_counter()
    code, out, err = run_stdin(["reconstruct", "-"], text.encode("utf-8"))
    assert perf_counter() - start < 1.0
    assert code in (0, 1, 2)
    assert (code == 2) == err.startswith("error: ")

"""The TORUSMAP v1 text format for grid bijections.

Layout: header line ``TORUSMAP v1``, a size line ``n=<n> m=<m>``, then
exactly m^n records ``x1 .. xn -> y1 .. yn`` (integers in [0, m), single
spaces, line-feed terminated) sorted lexicographically by source point.
Text over binary on purpose: the grids are tiny, and diffable fixtures
that can be perturbed by hand are worth more than compact ones.
"""

from __future__ import annotations

import re
from itertools import product

from .collineation import index_point, point_index
from .reconstruction import GridMap

HEADER = "TORUSMAP v1"

_SIZE_LINE = re.compile(r"n=(\d+) m=(\d+)\Z", re.ASCII)


class TorusMapFormatError(Exception):
    """The document is not a well-formed TORUSMAP v1 file."""


def _row_heads(n: int, m: int) -> list[str]:
    """The text of the first n - 1 coordinates of the grid points, in
    lexicographic order: point i is spelled heads[i // m] + " " + str(i % m)."""
    return [" ".join(p) for p in product(map(str, range(m)), repeat=n - 1)]


def emit_torusmap(f: GridMap) -> str:
    m = f.m
    digits = list(map(str, range(m)))
    heads = _row_heads(f.n, m)
    sources = (" ".join(p) for p in product(digits, repeat=f.n))
    lines = [HEADER, f"n={f.n} m={m}"]
    lines.extend(
        f"{s} -> {heads[t // m]} {digits[t % m]}" for s, t in zip(sources, f.images)
    )
    return "\n".join(lines) + "\n"


def _record_ints(tokens: list[str], m: int) -> tuple[int, ...]:
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


def _slow_record(record: str, idx: int, n: int, m: int) -> int:
    """The target index of a record in any spelling the format accepts
    (leading zeros, -0), or the TorusMapFormatError it earns."""
    tokens = record.split(" ")
    if len(tokens) != 2 * n + 1 or tokens[n] != "->":
        raise TorusMapFormatError(f"malformed record {record!r}")
    source = _record_ints(tokens[:n], m)
    target = _record_ints(tokens[n + 1 :], m)
    if source != index_point(idx, n, m):
        raise TorusMapFormatError(f"record {record!r} out of lexicographic order")
    return point_index(target, m)


def parse_torusmap(text: str) -> GridMap:
    if not text.endswith("\n"):
        raise TorusMapFormatError("missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != HEADER:
        raise TorusMapFormatError("missing TORUSMAP v1 header")
    if len(lines) < 2:
        raise TorusMapFormatError("missing size line")
    size_match = _SIZE_LINE.match(lines[1])
    if not size_match:
        raise TorusMapFormatError("size line must be 'n=<n> m=<m>'")
    n, m = int(size_match.group(1)), int(size_match.group(2))
    if n < 1 or m < 1:
        raise TorusMapFormatError("size line must be 'n=<n> m=<m>'")
    records = lines[2:]
    if m >= 2 and n > len(records).bit_length():
        # m**n >= 2**n exceeds the record count; refuse before computing it
        raise TorusMapFormatError(
            f"n={n} m={m} needs more than the {len(records)} records found"
        )
    expected = m**n
    if len(records) != expected:
        raise TorusMapFormatError(
            f"expected {expected} records, found {len(records)}"
        )
    # A record spelled as emit_torusmap spells it is read by two lookups:
    # the target's head (its first n - 1 coordinates) among the m**(n-1)
    # heads, and its last coordinate among the m digits.  Any other
    # spelling goes through the token-by-token checks.  At n = 1 the only
    # head is empty, which cannot tell "5" from " 5", so no lookup is made.
    digits = {str(c): c for c in range(m)}
    heads = {h: i * m for i, h in enumerate(_row_heads(n, m))} if n > 1 else {}
    sources = (" ".join(p) for p in product(digits, repeat=n))
    images = []
    for record, source in zip(records, sources):
        head, _, tail = record.partition(" -> ")
        first, _, last = tail.rpartition(" ")
        if head == source and first in heads and last in digits:
            images.append(heads[first] + digits[last])
        else:
            images.append(_slow_record(record, len(images), n, m))
    try:
        return GridMap(n, m, tuple(images))
    except ValueError as err:
        raise TorusMapFormatError(str(err)) from err

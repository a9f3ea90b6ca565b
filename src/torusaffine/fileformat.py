"""The TORUSMAP v1 text format for grid bijections.

Layout: header line ``TORUSMAP v1``, a size line ``n=<n> m=<m>``, then
exactly m^n records ``x1 .. xn -> y1 .. yn`` (integers in [0, m), single
spaces, line-feed terminated) sorted lexicographically by source point.
Text over binary on purpose: the grids are tiny, and diffable fixtures
that can be perturbed by hand are worth more than compact ones.
"""

from __future__ import annotations

import re

from .collineation import index_point, point_index
from .reconstruction import GridMap

HEADER = "TORUSMAP v1"

_SIZE_LINE = re.compile(r"n=(\d+) m=(\d+)\Z")


class TorusMapFormatError(Exception):
    """The document is not a well-formed TORUSMAP v1 file."""


def emit_torusmap(f: GridMap) -> str:
    lines = [HEADER, f"n={f.n} m={f.m}"]
    for idx in range(f.size):
        source = index_point(idx, f.n, f.m)
        target = index_point(f.images[idx], f.n, f.m)
        lines.append(" ".join(map(str, source)) + " -> " + " ".join(map(str, target)))
    return "\n".join(lines) + "\n"


def _record_ints(tokens: list[str], m: int) -> tuple[int, ...]:
    out = []
    for tok in tokens:
        if not tok or not tok.lstrip("-").isdigit():
            raise TorusMapFormatError(f"bad integer token {tok!r}")
        value = int(tok)
        if not 0 <= value < m:
            raise TorusMapFormatError(f"coordinate {value} outside [0, {m})")
        out.append(value)
    return tuple(out)


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
    images = []
    for idx, record in enumerate(records):
        tokens = record.split(" ")
        if len(tokens) != 2 * n + 1 or tokens[n] != "->":
            raise TorusMapFormatError(f"malformed record {record!r}")
        source = _record_ints(tokens[:n], m)
        target = _record_ints(tokens[n + 1 :], m)
        if source != index_point(idx, n, m):
            raise TorusMapFormatError(
                f"record {record!r} out of lexicographic order"
            )
        images.append(point_index(target, m))
    try:
        return GridMap(n, m, tuple(images))
    except ValueError as err:
        raise TorusMapFormatError(str(err)) from err

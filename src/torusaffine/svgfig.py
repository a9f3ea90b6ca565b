"""Static SVG pictures of the unit-square fundamental domain.

Scenes are plain dicts (the CLI reads them as JSON): lists under "lines",
"points", and "blocks", with rational coordinates given as "p/q" strings.
All geometry is computed in exact rational arithmetic and only rounded at
the last moment to fixed 4-decimal coordinates, so identical scenes always
produce byte-identical documents.

A torus line is drawn as its wrapped strokes: the closed geodesic of
primitive direction (p, q) crosses the square boundary |p|+|q| times (fewer
when it passes through a corner), and each piece between crossings is one
straight stroke.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import floor

from .lattice import primitive_part

_STYLE_VALUE = re.compile(r"[-#A-Za-z0-9. ,]*\Z")

DEFAULT_STROKE = "#1d3557"
DEFAULT_POINT_FILL = "#c1121f"
DEFAULT_BLOCK_STROKE = "#2a9d8f"
# More strokes than a figure can show: a scene whose lines need more than
# this in all is refused before any stroke is built.
MAX_STROKES = 10**4


class SceneError(Exception):
    """The scene description cannot be drawn."""


def _fmt(value: Fraction) -> str:
    scaled = round(value * 10000)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10000)
    return f"{sign}{whole}.{frac:04d}"


def _rational(token, what: str) -> Fraction:
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, str):
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as err:
            raise SceneError(f"bad rational {token!r} in {what}") from err
    raise SceneError(f"bad rational {token!r} in {what}")


def _pair(value, what: str) -> tuple[Fraction, Fraction]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SceneError(f"{what} must be a pair")
    return (_rational(value[0], what) % 1, _rational(value[1], what) % 1)


def _style(entry: dict, key: str, default: str) -> str:
    value = entry.get(key, default)
    if not isinstance(value, str) or not _STYLE_VALUE.match(value):
        raise SceneError(f"bad style value {value!r}")
    return value


def wrapped_strokes(
    base: tuple[Fraction, Fraction],
    direction: tuple[int, int],
    t_end: Fraction,
) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Straight pieces of {base + t*direction : 0 <= t <= t_end} inside the
    unit square, split where a coordinate crosses an integer, each given by
    its two endpoints (which may touch the boundary)."""
    cuts = {Fraction(0), t_end}
    for b, d in zip(base, direction):
        if d == 0:
            continue
        lo, hi = sorted((b, b + t_end * d))
        k = floor(lo) + 1
        while k < hi:
            t = Fraction(k - b, d)
            if 0 < t < t_end:
                cuts.add(t)
            k += 1
    ts = sorted(cuts)
    strokes = []
    for t0, t1 in zip(ts, ts[1:]):
        tm = (t0 + t1) / 2
        shift = tuple(floor(b + tm * d) for b, d in zip(base, direction))
        p0 = tuple(b + t0 * d - s for b, d, s in zip(base, direction, shift))
        p1 = tuple(b + t1 * d - s for b, d, s in zip(base, direction, shift))
        strokes.append((p0[0], p0[1], p1[0], p1[1]))
    return strokes


def _diagonal(a, b, what: str):
    """Wrapped strokes of the slope +-1 connection between two points."""
    dx = (b[0] - a[0]) % 1
    dy = (b[1] - a[1]) % 1
    if dx == dy:
        direction, span = (1, 1), dx
    elif (dx + dy) % 1 == 0:
        direction, span = (1, -1), dx
    else:
        raise SceneError(f"{what} corners admit no slope +-1 connection")
    if span == 0:
        return []
    return wrapped_strokes(a, direction, span)


def _line_direction(entry: dict) -> tuple[int, int]:
    direction = entry.get("direction")
    if (
        not isinstance(direction, (list, tuple))
        or len(direction) != 2
        or not all(isinstance(c, int) for c in direction)
        or direction == [0, 0]
        or direction == (0, 0)
    ):
        raise SceneError("line direction must be a nonzero integer pair")
    return primitive_part(tuple(direction))[0]


def _line_elements(entry: dict, direction: tuple[int, int]) -> list[str]:
    base = _pair(entry.get("base", ("0", "0")), "line base")
    stroke = _style(entry, "stroke", DEFAULT_STROKE)
    width = _style(entry, "width", "0.008")
    dash = _style(entry, "dash", "")
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    out = []
    for x0, y0, x1, y1 in wrapped_strokes(base, direction, Fraction(1)):
        out.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(1 - y0)}" x2="{_fmt(x1)}"'
            f' y2="{_fmt(1 - y1)}" stroke="{stroke}" stroke-width="{width}"'
            f"{extra} />"
        )
    return out


def _point_elements(entry: dict) -> list[str]:
    at = _pair(entry.get("at"), "point position")
    fill = _style(entry, "fill", DEFAULT_POINT_FILL)
    radius = _style(entry, "radius", "0.014")
    return [
        f'<circle cx="{_fmt(at[0])}" cy="{_fmt(1 - at[1])}" r="{radius}"'
        f' fill="{fill}" />'
    ]


def _block_elements(entry: dict) -> list[str]:
    x0 = _rational(entry.get("x0"), "block x0") % 1
    x1 = _rational(entry.get("x1"), "block x1") % 1
    y0 = _rational(entry.get("y0"), "block y0") % 1
    y1 = _rational(entry.get("y1"), "block y1") % 1
    if x0 == x1 or y0 == y1:
        raise SceneError("block sides must be nonzero")
    stroke = _style(entry, "stroke", DEFAULT_BLOCK_STROKE)
    width = _style(entry, "width", "0.006")
    corners = [(x0, y0), (x1, y0), (x0, y1), (x1, y1)]
    strokes = []
    for a, b in (
        ((x0, y0), (x1, y0)),
        ((x0, y1), (x1, y1)),
        ((x0, y0), (x0, y1)),
        ((x1, y0), (x1, y1)),
    ):
        span = (b[0] - a[0]) % 1 if a[1] == b[1] else (b[1] - a[1]) % 1
        direction = (1, 0) if a[1] == b[1] else (0, 1)
        strokes.extend(wrapped_strokes(a, direction, span))
    strokes.extend(_diagonal((x0, y0), (x1, y1), "block"))
    strokes.extend(_diagonal((x1, y0), (x0, y1), "block"))
    out = [
        f'<line x1="{_fmt(sx0)}" y1="{_fmt(1 - sy0)}" x2="{_fmt(sx1)}"'
        f' y2="{_fmt(1 - sy1)}" stroke="{stroke}" stroke-width="{width}" />'
        for sx0, sy0, sx1, sy1 in strokes
    ]
    for cx, cy in corners:
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(1 - cy)}" r="0.012"'
            f' fill="{stroke}" />'
        )
    return out


def render_scene(scene: dict) -> str:
    if not isinstance(scene, dict):
        raise SceneError("scene must be a JSON object")
    allowed = {"lines", "points", "blocks", "width"}
    unknown = set(scene) - allowed
    if unknown:
        raise SceneError(f"unknown scene keys: {sorted(unknown)}")
    width = scene.get("width", 540)
    if not isinstance(width, int) or not 64 <= width <= 4096:
        raise SceneError("width must be an integer in [64, 4096]")
    for key in ("lines", "points", "blocks"):
        if key in scene and not isinstance(scene[key], list):
            raise SceneError(f"{key} must be a list")
        for entry in scene.get(key, []):
            if not isinstance(entry, dict):
                raise SceneError(f"each {key} entry must be an object")
    lines = scene.get("lines", [])
    directions = [_line_direction(entry) for entry in lines]
    # A closed line of direction (p, q) crosses the sides |p| + |q| times,
    # and the stroke through its base is cut there: at most one more.
    strokes = sum(abs(p) + abs(q) for p, q in directions)
    if strokes > MAX_STROKES:
        raise SceneError(
            f"scene lines need {strokes} strokes in all, more than {MAX_STROKES}"
        )
    body = [
        '<rect x="0" y="0" width="1" height="1" fill="#ffffff"'
        ' stroke="#333333" stroke-width="0.004" />'
    ]
    for entry in scene.get("blocks", []):
        body.extend(_block_elements(entry))
    for entry, direction in zip(lines, directions):
        body.extend(_line_elements(entry, direction))
    for entry in scene.get("points", []):
        body.extend(_point_elements(entry))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg"'
        f' viewBox="-0.05 -0.05 1.1 1.1" width="{width}" height="{width}">',
        *("  " + element for element in body),
        "</svg>",
    ]
    return "\n".join(parts) + "\n"

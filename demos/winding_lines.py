"""Rational lines on the square torus: winding, intersection counts, and a
picture.

A line with primitive direction (p, q) closes up after wrapping |p| times
horizontally and |q| times vertically.  Two non-parallel lines with
directions v1, v2 meet in exactly |det(v1 v2)| points, no matter where
their base points sit.  This script counts a few intersections three ways
(closed form, exact point enumeration, brute-force grid oracle) and writes
an SVG of the configuration.
"""

from fractions import Fraction

from torusaffine import (
    grid_oracle_count,
    intersection_count_2d,
    intersection_points,
    line_through,
    origin,
    point,
    render_scene,
)

def describe(line):
    return f"direction {line.direction} through {line.base}"


l1 = line_through(origin(2), (2, 3))
l2 = line_through(point("0", "1/2"), (1, -1))
l3 = line_through(point("1/4", "0"), (2, 3))

for a, b in ((l1, l2), (l1, l3), (l2, l3)):
    formula = intersection_count_2d(a, b)
    print(f"{describe(a)}  x  {describe(b)}:")
    if formula.is_infinite:
        print("  the same line: infinite intersection")
        continue
    pts = () if formula.count == 0 else intersection_points(a, b)
    if a.direction == b.direction:
        print(f"  parallel: closed form {formula}, enumerated {len(pts)}")
        continue
    oracle = grid_oracle_count(a, b)
    print(f"  closed form {formula}, enumerated {len(pts)}, grid oracle {oracle}")
    for p in pts:
        print(f"    {p}")

scene = {
    "width": 640,
    "lines": [
        {"direction": [2, 3]},
        {"direction": [1, -1], "base": ["0", "1/2"], "stroke": "#e07a1f"},
        {"direction": [2, 3], "base": ["1/4", "0"], "dash": "0.02 0.012"},
    ],
    "points": [
        {"at": [str(c) for c in p.coords]}
        for p in intersection_points(l1, l2)
    ],
}
with open("winding_lines.svg", "w", encoding="ascii") as fh:
    fh.write(render_scene(scene))
print("\nwrote winding_lines.svg (5 intersection points marked)")

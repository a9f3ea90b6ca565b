"""File format, CLI verdicts, exit codes, and byte-level determinism."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

from torusaffine.cli import generate_map, main
from torusaffine.collineation import (
    canonical_generator,
    collineation_group,
    is_affine_perm,
)
from torusaffine.fileformat import (
    TorusMapFormatError,
    emit_torusmap,
    parse_torusmap,
)
from torusaffine.geometry import grid_oracle_count, line_through
from torusaffine.reconstruction import GridMap


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------- fileformat


def test_emit_shape():
    text = emit_torusmap(GridMap(2, 3, tuple(range(9))))
    lines = text.split("\n")
    assert lines[0] == "TORUSMAP v1"
    assert lines[1] == "n=2 m=3"
    assert lines[2] == "0 0 -> 0 0"
    assert lines[10] == "2 2 -> 2 2"
    assert text.endswith("\n") and lines[11] == ""


def test_round_trip_bit_exact():
    f = generate_map(2, 5, seed=3, kind="random")
    text = emit_torusmap(f)
    assert parse_torusmap(text) == f
    assert emit_torusmap(parse_torusmap(text)) == text


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda t: t.replace("TORUSMAP v1", "TORUSMAP v2"), "header"),
        (lambda t: t.replace("n=2 m=3", "n=2, m=3"), "size line"),
        (lambda t: t.replace("0 0 -> 0 0\n", ""), "expected 9 records"),
        (lambda t: t.replace("0 0 -> 0 0", "0 0 -> 0  0"), "malformed record"),
        (lambda t: t.replace("0 0 -> 0 0", "0 0 -> 0 3"), "outside"),
        (lambda t: t.replace("0 0 -> 0 0", "0 0 -> 0 1"), "not a permutation"),
        (lambda t: t[:-1], "trailing newline"),
        (lambda t: t.replace("n=2 m=3\n0 0 -> 0 0", "0 0 -> 0 0\nn=2 m=3"), "size line"),
        (lambda t: "TORUSMAP v1\nn=100000000 m=1000000\n", "needs more than the 0"),
    ],
)
def test_parse_rejects(mangle, message):
    good = emit_torusmap(GridMap(2, 3, tuple(range(9))))
    with pytest.raises(TorusMapFormatError, match=message):
        parse_torusmap(mangle(good))


def test_parse_rejects_reordered_records():
    good = emit_torusmap(GridMap(2, 3, tuple(range(9)))).split("\n")
    good[2], good[3] = good[3], good[2]
    with pytest.raises(TorusMapFormatError, match="order"):
        parse_torusmap("\n".join(good))


def test_parse_rejects_tiny_modulus():
    text = "TORUSMAP v1\nn=2 m=2\n" + "".join(
        f"{a} {b} -> {a} {b}\n" for a in range(2) for b in range(2)
    )
    with pytest.raises(TorusMapFormatError, match="modulus too small"):
        parse_torusmap(text)


# --------------------------------------------------------------- gen


def test_gen_deterministic(capsys):
    first = run(capsys, "gen", "--n", "2", "--m", "5", "--seed", "9")
    second = run(capsys, "gen", "--n", "2", "--m", "5", "--seed", "9")
    assert first == second
    assert first[0] == 0
    assert parse_torusmap(first[1]).m == 5


def test_gen_rejects_small_modulus(capsys):
    code, out, err = run(capsys, "gen", "--n", "2", "--m", "2")
    assert code == 2
    assert "modulus too small" in err


def test_gen_refuses_oversized_grid(capsys):
    # 10^12 points: the random kind ran out of memory, the affine kind would
    # loop 10^12 times; n = 10^8 must be refused without computing m**n.
    for argv in (
        ("--n", "4", "--m", "1000", "--kind", "random"),
        ("--n", "4", "--m", "1000", "--kind", "affine"),
        ("--n", "100000000", "--m", "3", "--kind", "perturbed"),
        ("--n", "2", "--m", "1001"),
    ):
        code, out, err = run(capsys, "gen", *argv)
        assert (code, out) == (2, "")
        assert "larger than 1000000 points" in err


def test_gen_kinds_differ():
    affine = generate_map(2, 5, seed=4, kind="affine")
    perturbed = generate_map(2, 5, seed=4, kind="perturbed")
    assert sum(a != b for a, b in zip(affine.images, perturbed.images)) == 2


# ------------------------------------------------------- reconstruct


def test_reconstruct_identity(tmp_path, capsys):
    path = tmp_path / "id.torusmap"
    path.write_text(emit_torusmap(GridMap(2, 5, tuple(range(25)))))
    code, out, err = run(capsys, "reconstruct", str(path))
    assert code == 0
    assert out == "AFFINE\nn=2 m=5\nA 1 0\nA 0 1\nb 0 0\n"


def test_reconstruct_negation_with_shift(tmp_path, capsys):
    # x -> -x + (1/3, 1/3) on the 3-grid
    images = []
    for a in range(3):
        for b in range(3):
            images.append(((1 - a) % 3) * 3 + (1 - b) % 3)
    path = tmp_path / "neg.torusmap"
    path.write_text(emit_torusmap(GridMap(2, 3, tuple(images))))
    code, out, err = run(capsys, "reconstruct", str(path))
    assert code == 0
    assert out == "AFFINE\nn=2 m=3\nA -1 0\nA 0 -1\nb 1/3 1/3\n"


def radial_map(m):
    """Scale each line through 0 (prime m) by its own unit: those lines
    survive, so the first broken line has a nonzero base."""
    pts = [(a, b) for a in range(m) for b in range(m)]
    gens = sorted({canonical_generator(p, m) for p in pts if p != (0, 0)})
    unit = {g: 1 + i % (m - 1) for i, g in enumerate(gens)}
    images = [0]
    for a, b in pts[1:]:
        u = unit[canonical_generator((a, b), m)]
        images.append(u * a % m * m + u * b % m)
    return GridMap(2, m, tuple(images))


# Witness reports pinned byte for byte: any drift in the line scan order or
# in the (i, j, k) triple order shows here.
PINNED_WITNESSES = [
    (
        generate_map(2, 5, seed=11, kind="perturbed"),
        "line_base 0 0\nline_dir 1 0\n"
        "p 0 0 -> 4 4\np 1 0 -> 1 0\np 2 0 -> 0 0\n",
    ),
    (
        generate_map(2, 12, seed=3, kind="perturbed"),
        "line_base 0 0\nline_dir 0 1\n"
        "p 0 0 -> 9 1\np 0 1 -> 6 11\np 0 3 -> 8 9\n",
    ),
    (
        generate_map(3, 7, seed=1, kind="perturbed"),
        "line_base 0 0 0\nline_dir 1 5 3\n"
        "p 0 0 0 -> 0 6 3\np 1 5 3 -> 2 2 6\np 6 2 4 -> 3 3 5\n",
    ),
    (
        generate_map(2, 8, seed=2, kind="random"),
        "line_base 0 0\nline_dir 0 1\n"
        "p 0 0 -> 0 3\np 0 1 -> 2 5\np 0 4 -> 1 7\n",
    ),
    (
        generate_map(4, 4, seed=5, kind="perturbed"),
        "line_base 0 0 0 0\nline_dir 1 0 3 0\n"
        "p 0 0 0 0 -> 3 2 1 3\np 1 0 3 0 -> 1 2 2 3\np 3 0 1 0 -> 2 3 1 1\n",
    ),
    (
        radial_map(5),
        "line_base 0 1\nline_dir 1 0\n"
        "p 0 1 -> 0 1\np 1 1 -> 3 3\np 2 1 -> 2 1\n",
    ),
    (
        radial_map(7),
        "line_base 0 1\nline_dir 1 0\n"
        "p 0 1 -> 0 1\np 1 1 -> 3 3\np 2 1 -> 5 6\n",
    ),
]


def test_reconstruct_perturbed_witness(tmp_path, capsys):
    path = tmp_path / "w.torusmap"
    for f, body in PINNED_WITNESSES:
        path.write_text(emit_torusmap(f))
        code, out, err = run(capsys, "reconstruct", str(path))
        assert (code, err) == (1, "")
        assert out == f"WITNESS\nn={f.n} m={f.m}\n" + body


def test_reconstruct_nonaffine_collineation(tmp_path, capsys):
    summary = collineation_group(2, 4)
    perm = next(
        p for p in summary.stabilizer() if is_affine_perm(2, 4, p) is None
    )
    path = tmp_path / "na.torusmap"
    path.write_text(emit_torusmap(GridMap(2, 4, perm)))
    code, out, err = run(capsys, "reconstruct", str(path))
    assert code == 1
    assert out == "NONAFFINE\nn=2 m=4\nline_preserving true\n"


def test_reconstruct_malformed(tmp_path, capsys):
    path = tmp_path / "bad.torusmap"
    path.write_text("TORUSMAP v1\nn=2 m=5\nnope\n")
    code, out, err = run(capsys, "reconstruct", str(path))
    assert code == 2
    assert "error:" in err


def test_reconstruct_stdin_refuses_oversized_size_line(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin",
        io.TextIOWrapper(io.BytesIO(b"TORUSMAP v1\nn=100000000 m=1000000\n")),
    )
    code, out, err = run(capsys, "reconstruct", "-")
    assert (code, out) == (2, "")
    assert "needs more than the 0 records" in err


def _reconstruct_both_ways(tmp_path, capsys, monkeypatch, data: bytes):
    """reconstruct of data read from a file and from stdin."""
    path = tmp_path / "in.torusmap"
    path.write_bytes(data)
    from_file = run(capsys, "reconstruct", str(path))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    return from_file, run(capsys, "reconstruct", "-")


@pytest.mark.parametrize("token", ["\u0662", "--2", "\u00b2"])
def test_reconstruct_stdin_refuses_what_a_file_refuses(
    tmp_path, capsys, monkeypatch, token
):
    # Arabic-Indic two and superscript two are digits to str.isdigit, and
    # int() reads the first as 2; stdin used to accept it.  "--2" used to
    # fail inside int() instead of the format check.
    good = emit_torusmap(GridMap(2, 3, tuple(range(9))))
    bad = good.replace("2 2 -> 2 2", f"2 2 -> {token} 2")
    from_file, from_stdin = _reconstruct_both_ways(
        tmp_path, capsys, monkeypatch, bad.encode("utf-8")
    )
    assert from_file == from_stdin
    code, out, err = from_stdin
    assert (code, out) == (2, "") and err.startswith("error: ")
    with pytest.raises(TorusMapFormatError, match="bad integer token"):
        parse_torusmap(bad)


def test_reconstruct_stdin_reads_crlf_like_a_file(tmp_path, capsys, monkeypatch):
    text = emit_torusmap(generate_map(2, 5, seed=4, kind="affine"))
    from_file, from_stdin = _reconstruct_both_ways(
        tmp_path, capsys, monkeypatch, text.replace("\n", "\r\n").encode("ascii")
    )
    assert from_file == from_stdin
    assert from_stdin[0] == 0 and from_stdin[1].startswith("AFFINE\n")


@pytest.mark.parametrize("command", ["reconstruct", "svg"])
def test_closed_stdin_exits_2(capsys, monkeypatch, command):
    # With file descriptor 0 closed the interpreter sets sys.stdin to None.
    monkeypatch.setattr("sys.stdin", None)
    assert run(capsys, command, "-") == (2, "", "error: stdin is closed\n")


def test_gen_into_closed_pipe_exits_2_without_traceback():
    # About 1 MB of output against a 64 kB pipe: gen is still writing
    # when the reader goes away.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "torusaffine.cli", "gen", "--n", "2", "--m", "256"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.stderr.close()
        if proc.poll() is None:
            proc.kill()
    assert code == 2
    assert b"Traceback" not in err


# --------------------------------------------- intersect and oracle


def test_intersect_axes(capsys):
    code, out, err = run(capsys, "intersect", "--dir1", "1,0", "--dir2", "0,1")
    assert code == 0
    assert out == "count 1\npoint 0 0\n"


def test_intersect_winding(capsys):
    code, out, err = run(capsys, "intersect", "--dir1", "2,3", "--dir2", "0,1")
    assert code == 0
    assert out == "count 2\npoint 0 0\npoint 0 1/2\n"


def test_intersect_parallel_distinct(capsys):
    code, out, err = run(
        capsys, "intersect", "--dir1", "1,1", "--dir2", "1,1", "--base2", "0,1/2"
    )
    assert (code, out) == (0, "count 0\n")


def test_intersect_same_line(capsys):
    code, out, err = run(capsys, "intersect", "--dir1", "1,1", "--dir2", "1,1")
    assert (code, out) == (0, "count infinite\n")


def test_intersect_refuses_too_many_points(capsys):
    # 10^10 points used to be listed until memory ran out; the ceiling is the
    # oracle's default, so 1000001 points are one too many.
    for dir1, dir2 in (("100000,1", "1,100000"), ("1,0", "1,1000001")):
        code, out, err = run(capsys, "intersect", "--dir1", dir1, "--dir2", dir2)
        assert (code, out) == (2, "")
        assert "more than 1000000 to list" in err


def test_intersect_parse_error(capsys):
    code, out, err = run(capsys, "intersect", "--dir1", "1;0", "--dir2", "0,1")
    assert code == 2


def test_oracle_counts(capsys):
    assert run(capsys, "oracle", "--dir1", "1,1", "--dir2", "1,-1")[:2] == (
        0,
        "count 2\n",
    )
    assert run(capsys, "oracle", "--dir1", "3,1", "--dir2", "1,2")[:2] == (
        0,
        "count 5\n",
    )
    assert run(capsys, "oracle", "--dir1", "1,0", "--dir2", "0,1")[:2] == (
        0,
        "count 1\n",
    )


def test_oracle_refuses_parallel(capsys):
    code, out, err = run(capsys, "oracle", "--dir1", "1,1", "--dir2=-1,-1")
    assert code == 2
    assert "refuses" in err


def test_oracle_denominator_bound(capsys):
    code, out, err = run(
        capsys, "oracle", "--dir1", "5,4", "--dir2", "4,-5",
        "--max-denominator", "10",
    )
    assert code == 2
    assert "exceeds bound" in err


def test_oracle_agrees_with_exact_count():
    l1 = line_through((Fraction(0), Fraction(1, 3)), (5, 2))
    l2 = line_through((Fraction(1, 4), Fraction(0)), (1, -3))
    assert grid_oracle_count(l1, l2) == abs(5 * (-3) - 2 * 1)


# ------------------------------------------------------------ search


def test_search_m3_report(capsys):
    code, out, err = run(capsys, "search", "--m", "3")
    assert code == 0
    assert out == "collineation_order 432\naffine_order 432\nindex 1\nnodes 80\n"
    assert err.startswith("runtime ")


def test_search_stdout_deterministic_across_workers(capsys):
    outs = {run(capsys, "search", "--m", "3", "--workers", str(w))[1] for w in (1, 2)}
    assert len(outs) == 1
    # m = 3 runs one task; m = 4 (two divisor classes) and m = 6 (three) fork
    for m in ("4", "6"):
        outs = {run(capsys, "search", "--m", m, "--workers", str(w))[1] for w in (1, 2)}
        assert len(outs) == 1


def test_search_refuses_oversized_table(capsys):
    t0 = perf_counter()
    code, out, err = run(capsys, "search", "--m", "1000")
    assert perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_search_budget_flag(capsys):
    code, out, err = run(capsys, "search", "--m", "5", "--budget", "50")
    assert code == 3
    assert "budget exceeded" in err


# --------------------------------------------------------------- svg


def write_scene(tmp_path, scene):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    return str(path)


def test_svg_diagonal_single_stroke(tmp_path, capsys):
    path = write_scene(tmp_path, {"lines": [{"direction": [1, 1]}]})
    code, out, err = run(capsys, "svg", path)
    assert code == 0
    strokes = [ln for ln in out.split("\n") if "<line" in ln]
    assert len(strokes) == 1
    assert 'x1="0.0000"' in strokes[0] and 'x2="1.0000"' in strokes[0]


def test_svg_wrapped_polyline(tmp_path, capsys):
    path = write_scene(tmp_path, {"lines": [{"direction": [2, 3]}]})
    code, out, err = run(capsys, "svg", path)
    assert code == 0
    strokes = [ln for ln in out.split("\n") if "<line" in ln]
    # the (2,3) geodesic crosses the boundary at x in {1/2} and y in
    # {1/3, 2/3}: four wrapped pieces
    assert len(strokes) == 4
    assert "0.3333" in out and "0.5000" in out and "0.6667" in out


def test_svg_block_figure(tmp_path, capsys):
    path = write_scene(
        tmp_path, {"blocks": [{"x0": "0", "x1": "1/3", "y0": "0", "y1": "1/3"}]}
    )
    code, out, err = run(capsys, "svg", path)
    assert code == 0
    assert out.count("<line") == 6  # four axis edges, two diagonals
    assert out.count("<circle") == 4  # corner markers


def test_svg_deterministic(tmp_path, capsys):
    scene = {
        "lines": [{"direction": [3, -2], "base": ["1/5", "0"], "dash": "0.02 0.01"}],
        "points": [{"at": ["1/2", "1/3"]}],
    }
    path = write_scene(tmp_path, scene)
    assert run(capsys, "svg", path) == run(capsys, "svg", path)


def test_svg_invalid_scene(tmp_path, capsys):
    code, out, err = run(capsys, "svg", write_scene(tmp_path, {"points": [{}]}))
    assert code == 2
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(capsys, "svg", str(path))[0] == 2


def test_svg_refuses_steep_line(tmp_path, capsys):
    # A line of direction (p, q) crosses the sides |p| + |q| times; a scene
    # whose lines need more than MAX_STROKES (10**4) in all is refused before
    # any stroke is built.  The first used to hang; (20000, 2) reduces to
    # (10000, 1), one over.
    def scene(direction):
        return write_scene(tmp_path, {"lines": [{"direction": direction}]})

    for direction in ([100000000, 1], [1, -10000], [20000, 2]):
        t0 = perf_counter()
        code, out, err = run(capsys, "svg", scene(direction))
        assert perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert "strokes in all, more than 10000" in err
    code, out, _ = run(capsys, "svg", scene([2000000, 2000000]))
    assert code == 0 and out.count("<line") == 1


def test_svg_bounds_the_whole_scene(tmp_path, capsys):
    # each line fits alone; eleven of 1000 strokes do not fit together
    def scene(direction, count):
        lines = [{"direction": direction}] * count
        return write_scene(tmp_path, {"lines": lines})

    t0 = perf_counter()
    code, out, err = run(capsys, "svg", scene([999, 1], 11))
    assert perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert "scene lines need 11000 strokes in all, more than 10000" in err
    # from the corner (0, 0), a (99, 1) line is 99 strokes, not 100
    code, out, _ = run(capsys, "svg", scene([99, 1], 10))
    assert code == 0 and out.count("<line") == 10 * 99

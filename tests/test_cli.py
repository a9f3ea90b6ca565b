"""File format, CLI verdicts, exit codes, and byte-level determinism."""

import ast
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusaffine
from torusaffine.cli import generate_map, main
from torusaffine.collineation import collineation_group
from torusaffine.fileformat import (
    TorusMapFormatError,
    emit_torusmap,
    parse_torusmap,
)
from torusaffine.geometry import grid_oracle_count, line_through
from torusaffine.grid import GridMap, canonical_generator, is_affine_perm

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_parse_memory_peak():
    # A (2, 256) table is 1.0 MB of text and 65536 record strings.  The
    # parse drops the header lines in place and lets the records go before
    # GridMap's permutation check: a 7.5 MB peak, where a copy of the line
    # list kept alive through the check peaked at 11.2 MB.
    images = tuple(range(256 * 256))
    text = emit_torusmap(GridMap(2, 256, images))
    tracemalloc.start()
    try:
        f = parse_torusmap(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.images == images
    assert peak < 9_000_000


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


def test_gen_checks_the_dimension_before_the_modulus(capsys):
    # the one size rule of the grid module, as GridMap and a TORUSMAP file
    # report it: a grid that fails both checks is reported by its dimension
    for n, m, message in (
        ("1", "2", "dimension must be at least 2"),
        ("1", "5", "dimension must be at least 2"),
        ("2", "2", "modulus too small"),
    ):
        assert run(capsys, "gen", "--n", n, "--m", m) == (2, "", f"error: {message}\n")


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


def test_gen_output_pinned_across_versions():
    digest = hashlib.sha256()
    for n, m in ((2, 3), (2, 5), (2, 8), (2, 12), (3, 4), (3, 6), (4, 3), (2, 64)):
        for kind in ("affine", "perturbed", "random"):
            for seed in range(6):
                text = emit_torusmap(generate_map(n, m, seed, kind))
                digest.update(text.encode())
    assert digest.hexdigest() == (
        "dbb7d8dc9f2bd944e1e808298cf951a95254d241a029fafe8ba7fa717b0ce817"
    )


def test_readme_gen_reconstruct_example(capsys, monkeypatch):
    code, table, _ = run(capsys, "gen", "--m", "8", "--seed", "42", "--kind", "affine")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(table.encode())))
    assert run(capsys, "reconstruct", "-")[:2] == (
        0,
        "AFFINE\nn=2 m=8\nA 1 0\nA 4 3\nb 3/8 1/4\n",
    )


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
    env = dict(os.environ, PYTHONPATH=str(SRC))
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
    for argv, message in (
        (["--dir1", "1;0"], "bad integer pair '1;0'"),
        (["--dir1", "1,2,3"], "expected two comma-separated integers, got '1,2,3'"),
        (["--dir1", "1,0", "--base1", "1/0,0"], "bad rational pair '1/0,0'"),
        (["--dir1", "1,0", "--base1", "1/2"],
         "expected two comma-separated rationals, got '1/2'"),
        (["--dir1", "0,0"], "direction must be nonzero"),
    ):
        result = run(capsys, "intersect", *argv, "--dir2", "0,1")
        assert result == (2, "", f"error: {message}\n")


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


def test_oracle_traces_on_integers(capsys):
    # two traces of 99855 points each, well inside the default bound
    t0 = perf_counter()
    result = run(capsys, "oracle", "--dir1", "316,1", "--dir2", "1,316")
    assert result[:2] == (0, "count 99855\n")
    assert perf_counter() - t0 < 3


# ------------------------------------------------------------ search


def test_search_m3_report(capsys):
    code, out, err = run(capsys, "search", "--m", "3")
    assert code == 0
    assert out == "collineation_order 432\naffine_order 432\nindex 1\nnodes 44\n"
    assert err.startswith("runtime ")


def test_search_stdout_deterministic_across_workers(capsys):
    outs = {run(capsys, "search", "--m", "3", "--workers", str(w))[1] for w in (1, 2)}
    assert len(outs) == 1
    for m in ("4", "6"):
        outs = {run(capsys, "search", "--m", m, "--workers", str(w))[1] for w in (1, 2)}
        assert len(outs) == 1


def test_search_refuses_oversized_table(capsys):
    t0 = perf_counter()
    code, out, err = run(capsys, "search", "--m", "1000")
    assert perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_search_refuses_a_table_over_a_million_incidences(capsys):
    # m = 78 is the first modulus whose table holds over 10^6 point-line
    # incidences: 78^2 points on 168 lines each
    t0 = perf_counter()
    code, out, err = run(capsys, "search", "--m", "78")
    assert perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "incidences" in err and "Traceback" not in err


def test_search_builds_the_table_at_m49(capsys):
    # 49^2 points hold 1152921 point pairs but 2401 * 56 incidences
    code, out, err = run(capsys, "search", "--m", "49", "--budget", "0")
    assert (code, out) == (3, "")
    assert err == "error: search budget exceeded after 1 nodes\n"


def test_search_budget_flag(capsys):
    code, out, err = run(capsys, "search", "--m", "5", "--budget", "50")
    assert (code, out) == (3, "")
    assert err == "error: search budget exceeded after 51 nodes\n"


def test_search_refuses_a_small_modulus_before_its_budget(capsys):
    for argv in (("--m", "2"), ("--m", "2", "--budget", "-1"), ("--m", "-1000000")):
        assert run(capsys, "search", *argv) == (2, "", "error: modulus too small\n")


def test_search_refuses_negative_budget(capsys):
    code, out, err = run(capsys, "search", "--m", "3", "--budget", "-5")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "budget" in err and "Traceback" not in err
    # a zero budget is a budget: the search stops at its first node
    code, out, err = run(capsys, "search", "--m", "3", "--budget", "0")
    assert (code, out) == (3, "")
    assert err == "error: search budget exceeded after 1 nodes\n"


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


@pytest.mark.parametrize(
    "scene, message",
    [
        ([], "scene must be a JSON object"),
        ({"points": [1]}, "each points entry must be an object"),
        ({"points": [{"at": [0, 0], "fill": "red;"}]}, "bad style value 'red;'"),
        (
            {"blocks": [{"x0": "0", "x1": "1/3", "y0": "0", "y1": "1/4"}]},
            "block corners admit no slope +-1 connection",
        ),
        (
            {"blocks": [{"x0": "1/3", "x1": "4/3", "y0": "0", "y1": "1/2"}]},
            "block sides must be nonzero",
        ),
        # JSON booleans are Python ints, but neither numbers nor directions
        (
            {"lines": [{"direction": [True, False]}]},
            "line direction must be a nonzero integer pair",
        ),
        ({"points": [{"at": [True, 0]}]}, "bad rational True in point position"),
        (
            {"blocks": [{"x0": False, "x1": "1/3", "y0": "0", "y1": "1/3"}]},
            "bad rational False in block x0",
        ),
    ],
)
def test_svg_refusals(tmp_path, capsys, scene, message):
    result = run(capsys, "svg", write_scene(tmp_path, scene))
    assert result == (2, "", f"error: {message}\n")


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


def test_rationals_refuse_decimal_exponents(tmp_path, capsys):
    # Fraction expands 1eN to 10**N: the intersect call took 13 s, and a
    # larger exponent would run for hours
    base = ["intersect", "--dir1", "1,0", "--dir2", "0,1", "--base1"]
    scene = write_scene(tmp_path, {"points": [{"at": ["1e10000000", "0"]}]})
    for argv in (base + ["1e10000000,0"], base + ["2E-3,0"], ["svg", scene]):
        t0 = perf_counter()
        code, out, err = run(capsys, *argv)
        assert perf_counter() - t0 < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
    assert run(capsys, *base, "3/2,0.5")[:2] == (0, "count 1\npoint 0 1/2\n")
    scene = write_scene(tmp_path, {"points": [{"at": ["3/2", "0.5"]}]})
    assert run(capsys, "svg", scene)[0] == 0


# ---------------------------------------------------------- start-up

EXPORTS = [
    "AffineTorusAuto", "BudgetExceededError", "ComponentDecomposition",
    "DiscreteLine", "GridMap", "GroupSummary", "IntersectionCount",
    "LatticeBasis", "NonaffineCollineationError", "PropertyReport", "RatPoint",
    "RationalLine", "RationalSubtorus", "SceneError", "TorusMapFormatError",
    "Witness", "affine_group_order", "are_parallel", "block_criterion",
    "build_incidence", "canonical_generator", "check_paper_properties",
    "collineation_group", "contains_point", "emit_torusmap",
    "enumerate_discrete_lines", "grid_oracle_count", "hnf", "image_subtorus",
    "infer_affine", "intersect_subtori", "intersection_count_2d",
    "intersection_points", "is_affine_perm", "is_block", "is_primitive",
    "is_unimodular", "line_as_subtorus", "line_grid_points",
    "line_hyperplane_count", "line_points", "line_subtorus_count",
    "line_through", "lines_through", "origin", "parse_torusmap", "point",
    "primitive_lift", "primitive_part", "quotient_project", "render_scene",
    "saturate", "smith_invariants", "snf_decomposition", "subtorus_span",
    "verify_line_preserving",
]


def fresh_python(*args) -> str:
    """stdout of a new interpreter that finds the package under src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_exports():
    assert len(EXPORTS) == 56
    assert torusaffine.__all__ == EXPORTS
    for name in EXPORTS:
        value = getattr(torusaffine, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    # one grid-map type, defined in grid and re-exported by the verdict module
    assert torusaffine.GridMap.__module__ == "torusaffine.grid"
    assert sys.modules["torusaffine.reconstruction"].GridMap is torusaffine.GridMap
    # the paper-property checks live apart from the verdict
    for name in ("PropertyReport", "check_paper_properties"):
        assert getattr(torusaffine, name).__module__ == "torusaffine.properties"
    namespace = {}
    exec("from torusaffine import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    assert set(EXPORTS) <= set(dir(torusaffine))
    with pytest.raises(AttributeError):
        torusaffine.no_such_name


def test_package_exports_load_on_first_use():
    script = """
import sys
import torusaffine
assert not [m for m in sys.modules if m.startswith("torusaffine.")]
from torusaffine import affine, collineation, fileformat, geometry, lattice, reconstruction, subtorus
assert geometry.line_through is torusaffine.line_through
# the submodule ratpoint is loaded by now; the name point is still the function
from torusaffine import RatPoint, point
assert point(1, 2) == RatPoint((1, 2))
print("ok")
"""
    assert fresh_python("-c", script) == "ok\n"
    # the grid names come from the grid module, without the search
    script = """
import sys
import torusaffine
assert torusaffine.lines_through((0, 0), (1, 2), 5)
assert torusaffine.is_affine_perm(2, 3, tuple(range(9))) is not None
assert next(iter(torusaffine.enumerate_discrete_lines(2, 3)))
assert "torusaffine.grid" in sys.modules
assert "torusaffine.collineation" not in sys.modules
print("ok")
"""
    assert fresh_python("-c", script) == "ok\n"
    # a grid map is a grid value: it loads no verdict code
    script = """
import sys
from torusaffine import GridMap
assert GridMap(2, 3, tuple(range(9))).image_of((1, 2)) == (1, 2)
print(sorted(m for m in sys.modules if m.startswith("torusaffine.")))
"""
    assert fresh_python("-c", script) == "['torusaffine.common', 'torusaffine.grid']\n"
    # the verdict module loads no property checks
    script = """
import sys
import torusaffine.reconstruction
print("torusaffine.properties" in sys.modules)
"""
    assert fresh_python("-c", script) == "False\n"


FOOTPRINT = """
import runpy, sys
sys.argv[0] = "torusaffine"
try:
    runpy.run_module("torusaffine.cli", run_name="__main__")
except SystemExit as exit:
    code = exit.code
print(code, " ".join(sorted(sys.modules)))
"""

# The package modules each subcommand loads, exactly; the cli module itself
# runs as __main__.  A table is built on residues, so gen loads no model and
# no verdict; a witness loads no rational model; only search loads the
# collineation search.
GRID = {"common", "fileformat", "grid"}
RATIONAL = {"common", "intmat", "lattice", "ratpoint"}
LOADS = {
    "gen": GRID | {"intmat"},
    "affine verdict": GRID | {"affine", "intmat", "ratpoint", "reconstruction"},
    "witness verdict": GRID | {"reconstruction"},
    "search": {"collineation", "common", "grid"},
    "intersect": RATIONAL | {"geometry"},
    "oracle": RATIONAL | {"geometry", "grid"},
    "svg": RATIONAL | {"svgfig"},
}

# No subcommand needs these: the value classes are hand-written and the
# search runs in one process
NOT_FOR_ANY_COMMAND = {"multiprocessing", "dataclasses", "inspect"}

# What neither a witness verdict nor the search runs: rational arithmetic
NOT_FOR_A_WITNESS = {"fractions", "decimal"}


def footprint(*argv, code: int = 0) -> set[str]:
    """The modules a fresh interpreter holds after running one subcommand,
    which must exit with code."""
    exit_code, *loaded = fresh_python("-c", FOOTPRINT, *argv).split()
    assert int(exit_code) == code, argv[0]
    return set(loaded)


def test_each_command_loads_exactly_its_modules(tmp_path):
    table, perturbed = tmp_path / "table.txt", tmp_path / "perturbed.txt"
    scene = write_scene(tmp_path, {"lines": [{"direction": [1, 1]}]})
    out = ("--out", tmp_path / "out.txt")
    lines = ("--dir1", "1,2", "--dir2", "2,1", *out)
    runs = (
        ("gen", ("gen", "--m", "16", "--kind", "affine", "--out", table), 0),
        ("gen", ("gen", "--m", "16", "--kind", "perturbed", "--out", perturbed), 0),
        ("affine verdict", ("reconstruct", table, "--out", tmp_path / "v.txt"), 0),
        ("witness verdict", ("reconstruct", perturbed, "--out", tmp_path / "w.txt"), 1),
        ("search", ("search", "--m", "3", "--workers", "1", *out), 0),
        ("search", ("search", "--m", "4", "--workers", "2", *out), 0),
        ("intersect", ("intersect", *lines), 0),
        ("oracle", ("oracle", *lines), 0),
        ("svg", ("svg", scene, *out), 0),
    )
    for row, argv, code in runs:
        loaded = footprint(*argv, code=code)
        package = {m.split(".", 1)[1] for m in loaded if m.startswith("torusaffine.")}
        assert package == LOADS[row], row
        assert not loaded & NOT_FOR_ANY_COMMAND, row
        if row in ("witness verdict", "search"):
            assert not loaded & NOT_FOR_A_WITNESS, row
    assert (tmp_path / "v.txt").read_text().startswith("AFFINE\n")
    assert (tmp_path / "w.txt").read_text().startswith("WITNESS\n")


def test_property_report_loads_no_rational_model():
    script = """
import sys
from torusaffine.properties import GridMap, check_paper_properties
report = check_paper_properties(GridMap(2, 5, tuple(range(25))))
assert report.parallels_preserved and report.blocks_preserved
rational = {"fractions", "torusaffine.affine", "torusaffine.intmat",
            "torusaffine.lattice", "torusaffine.ratpoint"}
print(sorted(rational & set(sys.modules)))
"""
    assert fresh_python("-c", script) == "[]\n"


def _unused_imports(text: str) -> list[str]:
    """The names a module imports and never reads, as 'line: name'; an
    import inside a function must be read in that function.  A line marked
    `# noqa: F401` is a deliberate re-export."""
    tree = ast.parse(text)
    lines = text.splitlines()
    scope_of = {}  # node -> the innermost function holding it, or the module

    def mark(node, scope):
        for child in ast.iter_child_nodes(node):
            scope_of[child] = scope
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            mark(child, child if is_function else scope)

    mark(tree, tree)
    unused = []
    for node, scope in scope_of.items():
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        reads = {
            n.id
            for n in ast.walk(scope)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in reads and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_reads():
    unused = {}
    for path in sorted((SRC / "torusaffine").glob("*.py")):
        hits = _unused_imports(path.read_text())
        if hits:
            unused[path.name] = hits
    assert unused == {}


def test_no_module_defines_a_name_the_package_never_names():
    # a module-level function or class that no other line of the package
    # names and that the package does not export is dead code
    paths = sorted((SRC / "torusaffine").glob("*.py"))
    texts = {path: path.read_text().splitlines() for path in paths}
    dead = []
    for path, lines in texts.items():
        for node in ast.parse("\n".join(lines)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in torusaffine._EXPORTS or node.name in ("__getattr__", "__dir__"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            named = (
                word.search(line)
                for other, rows in texts.items()
                for i, line in enumerate(rows, 1)
                if (other, i) != (path, node.lineno)
            )
            if not any(named):
                dead.append(f"{path.name}: {node.name}")
    assert dead == []


def test_no_module_loads_dataclasses_or_multiprocessing():
    names = sorted(p.stem for p in (SRC / "torusaffine").glob("*.py"))
    script = f"""
import importlib, sys
for name in {names!r}:
    importlib.import_module("torusaffine" + ("" if name == "__init__" else "." + name))
print(sorted({{"dataclasses", "inspect", "multiprocessing"}} & set(sys.modules)))
"""
    assert fresh_python("-c", script) == "[]\n"


# ----------------------------------------------------------- fuzzing


def _mostly(valid, malformed):
    """Draws from malformed one time in six, otherwise from valid."""
    return st.integers(0, 5).flatmap(lambda k: malformed if k == 0 else valid)


def _pair(values):
    return st.tuples(values, values).map(lambda p: f"{p[0]},{p[1]}")


RATIONALS = _mostly(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 7)),
    st.sampled_from(["1/0", "1/-2", "x", "1/2/3", "", "1e9", "2E-3"]),
)
INT_PAIRS = _mostly(
    _pair(st.integers(-6, 6)), st.sampled_from(["1", "1,2,3", "a,1", "3/2,1"])
)
RATIONAL_PAIRS = _mostly(_pair(RATIONALS), st.sampled_from(["1/2", "1/2,0,0"]))
KINDS = st.sampled_from(["affine", "perturbed", "random"])

# JSON values for the scene parser
TOKENS = _mostly(RATIONALS | st.integers(-3, 3), st.sampled_from([None, 1.5, [1]]))
POSITIONS = _mostly(
    st.lists(TOKENS, min_size=2, max_size=2), st.lists(TOKENS, max_size=3)
)
STYLES = _mostly(
    st.sampled_from(["red", "#0a0b0c", "0.01 0.02"]), st.sampled_from(["<", 3])
)
DIRECTIONS = st.lists(st.integers(-30, 30), min_size=2, max_size=2)
LINES = st.fixed_dictionaries(
    {"direction": _mostly(DIRECTIONS, TOKENS)},
    optional={"base": POSITIONS, "stroke": STYLES, "dash": STYLES},
)
POINTS = st.fixed_dictionaries({"at": POSITIONS}, optional={"fill": STYLES})
BLOCKS = st.fixed_dictionaries(
    {key: TOKENS for key in ("x0", "x1", "y0", "y1")}, optional={"stroke": STYLES}
)
SCENES = _mostly(
    st.fixed_dictionaries(
        {},
        optional={
            "lines": _mostly(st.lists(LINES, max_size=3), TOKENS),
            "points": st.lists(POINTS, max_size=3),
            "blocks": st.lists(BLOCKS, max_size=2),
            "width": _mostly(st.integers(64, 4096), st.sampled_from([10, "wide"])),
        },
    ),
    st.sampled_from([[], 3, "scene", None, {"extra": 1}]),
)


@st.composite
def cli_calls(draw):
    """(argv, text of the input file or None) from a small grammar over
    every subcommand; "FILE" in argv stands for the input file."""
    command = draw(
        st.sampled_from(["gen", "reconstruct", "intersect", "oracle", "search", "svg"])
    )
    if command == "gen":
        n = draw(_mostly(st.integers(2, 4), st.integers(-1, 1)))
        m = draw(_mostly(st.integers(3, 12), st.integers(-1, 2)))
        seed = draw(st.integers(-2, 99))
        kind = draw(_mostly(KINDS, st.just("other")))
        argv = ["gen", "--n", str(n), "--m", str(m), "--seed", str(seed)]
        return argv + ["--kind", kind], None
    if command == "reconstruct":
        n = draw(st.integers(2, 3))
        m = draw(st.integers(3, 8 if n == 2 else 4))
        table = emit_torusmap(generate_map(n, m, draw(st.integers(0, 9)), draw(KINDS)))
        cut = draw(st.integers(0, len(table)))
        mangled = [table[:cut], table[:cut] + "x" + table[cut:]]
        text = draw(_mostly(st.just(table), st.sampled_from(mangled)))
        return ["reconstruct", "FILE"], text
    if command in ("intersect", "oracle"):
        argv = [command]
        for i in "12":
            argv += [f"--dir{i}={draw(INT_PAIRS)}", f"--base{i}={draw(RATIONAL_PAIRS)}"]
        if command == "oracle" and draw(st.booleans()):
            argv.append(f"--max-denominator={draw(st.integers(-2, 10**5))}")
        return argv, None
    if command == "search":
        m = draw(_mostly(st.integers(3, 5), st.integers(-1, 2)))
        argv = ["search", "--m", str(m)]
        argv += ["--workers", str(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            argv += ["--budget", str(draw(st.sampled_from([-1, 0, 1, 50, 10**6])))]
        return argv, None
    text = draw(_mostly(SCENES.map(json.dumps), st.sampled_from(["{", "", "[1,"])))
    return ["svg", "FILE"], text


@given(call=cli_calls())
@settings(max_examples=200, deadline=None)
def test_cli_fuzz_ends_cleanly(tmp_path_factory, call):
    # every call ends within 10 s, exits 0-3 (argparse's refusal is
    # SystemExit(2)), writes no traceback and leaves no child process behind
    argv, text = call
    path = tmp_path_factory.getbasetemp() / "fuzz-input.txt"
    if text is not None:
        path.write_text(text, encoding="ascii")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
            assert code == 2, argv
    assert perf_counter() - start < 10, argv
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

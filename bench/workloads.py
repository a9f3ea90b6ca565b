"""The four workloads.  Each runs in passes: a pass is a fixed, seeded set of
operations, timed one by one, then checked by the benchmark's own oracles
outside the timed intervals.  All load comes from this process, one
operation at a time (a closed loop with one client).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import queries
import tables
from torusaffine import collineation


class Op:
    """One timed operation: its kind, latency, and whatever its oracle
    needs."""

    __slots__ = ("kind", "seconds", "result")

    def __init__(self, kind, seconds, result):
        self.kind, self.seconds, self.result = kind, seconds, result


class Cli:
    """Runs ``python -m torusaffine.cli`` from the checkout's ``src`` in
    fresh processes, one at a time, and reaps each with ``os.wait4`` to
    read its peak RSS; ``peak_kb`` is the largest seen.  ``idle``, when
    set, is called after each operation, outside its timed interval."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "TORUS_AFFINE_BUDGET"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.cwd = root
        self.peak_kb = 0
        self.idle = None

    def path(self, name: str) -> Path:
        return self.workdir / name

    def spawn(self, argv, stdout_name: str) -> tuple[int, float, int]:
        """(exit code, seconds, peak RSS in KiB) of one child process."""
        with open(self.path(stdout_name), "wb") as out, open(
            self.path(stdout_name + ".err"), "wb"
        ) as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.cwd)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return code, seconds, usage.ru_maxrss

    @staticmethod
    def command(args) -> list[str]:
        return [sys.executable, "-m", "torusaffine.cli", *map(str, args)]

    def run(self, tracer, label: str, args, stdout_name: str, payload=None) -> Op:
        """One CLI operation; label names it in reports, args[0] is the
        subcommand and names its span."""
        with tracer.op(f"cli.{args[0]}"):
            code, seconds, _ = self.spawn(self.command(args), stdout_name)
        if self.idle:
            self.idle()
        return Op(label, seconds, (code, stdout_name, payload))

    def output(self, op: Op) -> str:
        return self.path(op.result[1]).read_text(encoding="ascii")


def _clear_library_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("torusaffine"):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class GeometryQueries:
    """In-process queries against intmat, lattice, geometry and subtorus.

    The library caches are emptied at the start of each pass, so pooled
    inputs hit within a pass and the process's memory does not grow with
    the number of passes a faster program fits in.
    """

    PASS = 2000

    def __init__(self, cli: Cli, seed: int):
        self.stream = queries.QueryStream(seed)

    def run_pass(self, tracer) -> list[Op]:
        _clear_library_caches()
        batch = self.stream.batch(self.PASS)
        ops = []
        for kind, args in batch:
            with tracer.op(f"op.{kind}"):
                t = perf_counter()
                try:
                    result = queries.run(kind, args)
                except Exception as err:  # a failed query is counted, not fatal
                    result = err
                seconds = perf_counter() - t
            ops.append(Op(kind, seconds, (args, result)))
        return ops

    def failed(self, ops) -> dict[int, str]:
        """Index -> reason for every op whose answer is wrong."""
        bad = {}
        for i, op in enumerate(ops):
            args, result = op.result
            if isinstance(result, Exception) or not queries.check(op.kind, args, result):
                bad[i] = f"{op.kind} {args!r} -> {result!r}"
        return bad


class AffineRoundtrip:
    """``gen --kind affine`` then ``reconstruct`` of its output, per grid."""

    GRIDS = ((2, 64), (2, 128), (2, 256), (3, 16), (3, 40), (4, 8))

    def __init__(self, cli: Cli, seed: int):
        self.cli = cli
        rng = random.Random(seed)
        self.plan = [(n, m, rng.randrange(2**31)) for n, m in self.GRIDS]

    def run_pass(self, tracer) -> list[Op]:
        ops = []
        for n, m, gen_seed in self.plan:
            name = f"affine-{n}x{m}"
            path = self.cli.path(name + ".map")
            args = ["gen", "--n", n, "--m", m, "--seed", gen_seed, "--kind", "affine", "--out", path]
            ops.append(self.cli.run(tracer, f"gen {n}x{m}", args, name + ".gen", (n, m, path)))
            ops.append(self.cli.run(tracer, f"reconstruct {n}x{m}", ["reconstruct", path], name + ".out", (n, m)))
        return ops

    def failed(self, ops):
        bad = {}
        for i in range(0, len(ops), 2):
            gen, rec = ops[i], ops[i + 1]
            n, m, path = gen.result[2]
            try:
                images = tables.read(path.read_text(encoding="ascii"), n, m)
            except (OSError, ValueError) as err:
                bad[i] = bad[i + 1] = f"gen {n}x{m}: {err}"
                continue
            if gen.result[0] != 0 or not tables.is_affine(n, m, images):
                bad[i] = f"gen {n}x{m}: exit {gen.result[0]} or not affine"
            if rec.result[0] != 0 or not tables.check_affine_report(self.cli.output(rec), n, m, images):
                bad[i + 1] = f"reconstruct {n}x{m}: exit {rec.result[0]} or wrong model"
        return bad


class WitnessHunt:
    """``reconstruct`` of non-affine tables made here: one affine map with
    one transposition per grid, plus one uniform random permutation."""

    TABLES = (
        ("perturbed", 2, 16), ("perturbed", 2, 24), ("perturbed", 2, 29),
        ("perturbed", 2, 32), ("perturbed", 2, 40), ("perturbed", 3, 7),
        ("perturbed", 3, 8), ("random", 2, 16),
    )

    def __init__(self, cli: Cli, seed: int):
        self.cli = cli
        rng = random.Random(seed)
        self.plan = []
        for kind, n, m in self.TABLES:
            make = tables.perturbed_table if kind == "perturbed" else tables.random_table
            images = make(rng, n, m)
            path = cli.path(f"{kind}-{n}x{m}.map")
            path.write_text(tables.emit(n, m, images), encoding="ascii")
            self.plan.append((kind, n, m, images, path))

    def run_pass(self, tracer) -> list[Op]:
        ops = []
        for kind, n, m, images, path in self.plan:
            label = f"reconstruct {kind} {n}x{m}"
            ops.append(self.cli.run(tracer, label, ["reconstruct", path], f"{kind}-{n}x{m}.out", (n, m, images)))
        return ops

    def failed(self, ops):
        bad = {}
        for i, op in enumerate(ops):
            n, m, images = op.result[2]
            if op.result[0] != 1 or not tables.check_witness_report(self.cli.output(op), n, m, images):
                bad[i] = f"reconstruct {n}x{m}: exit {op.result[0]} or invalid witness"
        return bad


class CollineationSearch:
    """``search`` at small moduli, as (m, workers); the seed only orders the
    runs.  m = 7 (15-20 s on two workers here) is not among them: one such
    operation would fill a run and its single sample would set wall_s,
    ops_per_s and op_p90_ms; the traced run measures it instead."""

    RUNS = ((3, 1), (4, 1), (4, 2), (5, 1), (5, 2))

    def __init__(self, cli: Cli, seed: int):
        self.cli = cli
        self.plan = list(self.RUNS)
        random.Random(seed).shuffle(self.plan)
        self.nodes: dict[str, int] = {}

    def run_pass(self, tracer) -> list[Op]:
        ops = []
        for i, (m, workers) in enumerate(self.plan):
            args = ["search", "--m", m, "--workers", workers]
            label = f"search m={m} w{workers}"
            ops.append(self.cli.run(tracer, label, args, f"search-{i}.out", (m, workers)))
        return ops

    def failed(self, ops):
        bad, groups = {}, {}
        for i, op in enumerate(ops):
            m, workers = op.result[2]
            try:
                report = tables.parse_search_report(self.cli.output(op))
            except ValueError as err:
                bad[i] = f"search m={m} w{workers}: {err}"
                continue
            groups[m, workers] = (i, report["collineation_order"], report["affine_order"], report["index"])
            self.nodes[f"m{m}w{workers}"] = report["nodes"]
            if op.result[0] != 0 or not tables.check_search_report(
                report, m, collineation.affine_group_order
            ):
                bad[i] = f"search m={m} w{workers}: exit {op.result[0]} or wrong group"
        one, two = groups.get((5, 1)), groups.get((5, 2))
        if one and two and one[1:] != two[1:]:
            bad[two[0]] = "search m=5: workers 1 and 2 disagree"
        return bad


WORKLOADS = {
    "geometry-queries": GeometryQueries,
    "affine-roundtrip": AffineRoundtrip,
    "witness-hunt": WitnessHunt,
    "collineation-search": CollineationSearch,
}

#!/usr/bin/env python3
"""Benchmark of the torusaffine package, run from the root of a checkout.

    python3 bench/run.py                        # every workload, in turn
    python3 bench/run.py --workload witness-hunt --seed 3 --seconds 20 --trace 0

Each workload runs whole passes of its operations, one at a time, until
the next pass would overrun ``--seconds``; every answer is checked by the
benchmark's own oracles outside the timed intervals.  Set-up runs (fresh
interpreters that import the package and build the workload's inputs) are
spread over the run, and setup_s is their median.  With ``--trace 0`` the
run prints the end-to-end metrics; with ``--trace 1`` it runs the workload
untraced and traced (half the time each), then the per-layer probes, and
prints the per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files go to
``.bench_run/`` in the checkout; traced runs leave their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from math import ceil
from pathlib import Path
from statistics import median
from time import perf_counter

import tables
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"
PROBE_SAMPLES = 12
MIN_PROBES = 8
GEN_PROBE_GRID = (2, 64)
WORKLOAD_NAMES = ("geometry-queries", "affine-roundtrip", "witness-hunt", "collineation-search")


def rank(sorted_values, q: float):
    """Nearest-rank quantile: unchanged when every sample is repeated, so a
    run that fits one more pass of the same operations reads the same."""
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def metadata(args, counts: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "torusaffine").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        **counts,
    }


def measure(workload, seconds: float, tracer, idle=None):
    """Whole passes until the next one, as long as the last, would overrun
    seconds.  A pass's wall time is the sum of its operations' latencies, so
    oracles and side probes between operations are not counted.  Returns
    (pass walls, ops, failure messages)."""
    walls, ops, failures = [], [], []
    while True:
        pass_ops = workload.run_pass(tracer)
        failures += workload.failed(pass_ops).values()
        for op in pass_ops:
            op.result = None
        walls.append(sum(op.seconds for op in pass_ops))
        ops += pass_ops
        if idle:
            idle()
        if sum(walls) + walls[-1] > seconds:
            return walls, ops, failures


class SideProbes:
    """Set-up runs, and ``gen`` runs for workloads with no write side of
    their own, spread over the timed phase: the speed of a shared machine
    drifts over seconds, so samples taken back to back would all see one
    phase of it.  Called between operations; samples at most every
    seconds / PROBE_SAMPLES, and finish() tops up to MIN_PROBES."""

    def __init__(self, cli, args, with_gen: bool):
        self.cli, self.args, self.with_gen = cli, args, with_gen
        self.interval = args.seconds / PROBE_SAMPLES
        self.last = None
        self.setup, self.gen, self.failures = [], [], []

    def __call__(self) -> None:
        if self.last is None or perf_counter() - self.last >= self.interval:
            self.sample()

    def finish(self) -> None:
        while len(self.setup) < MIN_PROBES:
            self.sample()

    def sample(self) -> None:
        """One set-up run: a fresh interpreter that imports the package and
        builds the workload's inputs; then, if wanted, one ``gen`` run."""
        k = len(self.setup)
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", self.args.workload, "--seed", str(self.args.seed)]
        code, seconds, _ = self.cli.spawn(argv, "setup.out")
        self.setup.append(seconds)
        if code != 0:
            self.failures.append(f"set-up run {k} exited {code}")
        if self.with_gen:
            n, m = GEN_PROBE_GRID
            path = self.cli.path("probe.map")
            args = ["gen", "--n", n, "--m", m, "--seed", self.args.seed * 1000 + k,
                    "--kind", "affine", "--out", path]
            code, seconds, _ = self.cli.spawn(self.cli.command(args), "probe.gen")
            self.gen.append(seconds)
            try:
                ok = code == 0 and tables.is_affine(n, m, tables.read(path.read_text(encoding="ascii"), n, m))
            except (OSError, ValueError):
                ok = False
            if not ok:
                self.failures.append(f"gen probe {n}x{m} run {k}")
        self.last = perf_counter()


def run_workload(args) -> int:
    # Imported here: they import torusaffine, found through SRC.
    import layers
    import workloads

    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cli = workloads.Cli(ROOT, workdir)
        workload = workloads.WORKLOADS[args.workload](cli, args.seed)
        if args.trace:
            walls_u, ops, failures = measure(workload, args.seconds / 2, tracing.NULL)
            tracer = tracing.Tracer()
            layers.install(tracer)
            try:
                walls_t, ops_t, failures_t = measure(workload, args.seconds / 2, tracer)
                probe = layers.Probe(tracer, cli, args.seed)
                probe.run()
            finally:
                tracer.unpatch()
            probe.derive()
            metrics = dict(probe.metrics)
            metrics["trace.overhead_s"] = (median(walls_t) - median(walls_u), "s")
            attempted = len(ops) + len(ops_t) + probe.attempted
            failures += failures_t + probe.failures
            tracer.write(SCRATCH / f"trace-{args.workload}-{args.seed}.json")
            counts = {"ops": len(ops) + len(ops_t), "passes": len(walls_u) + len(walls_t),
                      "spans": len(tracer.spans)}
        else:
            probes = SideProbes(cli, args, with_gen=args.workload != "affine-roundtrip")
            probes()
            cli.idle = probes
            walls, ops, failures = measure(workload, args.seconds, tracing.NULL, probes)
            cli.idle = None
            probes.finish()
            failures += probes.failures
            attempted = len(ops) + len(probes.setup) + len(probes.gen)
            latencies = sorted(op.seconds for op in ops)
            gens = sorted(probes.gen or [op.seconds for op in ops if op.kind.startswith("gen ")])
            peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, cli.peak_kb)
            metrics = {
                "setup_s": (median(probes.setup), "s"),
                "wall_s": (median(walls), "s"),
                "ops_per_s": (len(ops) / sum(walls), "1/s"),
                "op_p50_ms": (rank(latencies, 0.5) * 1e3, "ms"),
                "op_p90_ms": (rank(latencies, 0.9) * 1e3, "ms"),
                "peak_rss_mb": (peak_kb / 1024, "MB"),
                "gen_p50_ms": (rank(gens, 0.5) * 1e3, "ms"),
            }
            kinds = {}
            for op in ops:
                kinds.setdefault(op.kind, []).append(op.seconds)
            counts = {
                "ops": len(ops),
                "passes": len(walls),
                "op_p90_samples": len(latencies),
                "setup_samples": len(probes.setup),
                "gen_samples": len(gens),
                "kinds": {k: {"n": len(v), "p50_ms": round(median(v) * 1e3, 3)} for k, v in kinds.items()},
            }
            if getattr(workload, "nodes", None):
                counts["search_nodes"] = workload.nodes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("# meta " + json.dumps(metadata(args, counts), sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  n={counts['op_p90_samples']}" if name == "op_p90_ms" else ""
        print(f"{name:44s} {value:14.6f} {unit}{note}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so that each one's peak RSS is its
    own; prints their reports and one combined JSON line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().split("\n")
        print(f"## {name}")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "torusaffine" / "__init__.py").is_file():
        print(f"error: no torusaffine package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        import workloads

        workdir = SCRATCH / f"setup-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            workloads.WORKLOADS[args.workload](workloads.Cli(ROOT, workdir), args.seed)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

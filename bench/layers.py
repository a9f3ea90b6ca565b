"""Per-layer probes for the traced run.

The layers are the package modules.  Spans come only from this benchmark:
module attributes are wrapped for the length of the traced run, so calls
the library makes between its own modules are caught too (``hnf`` and
``snf_decomposition`` are wrapped in ``lattice`` itself as well as where
``geometry``, ``subtorus`` and ``affine`` import them).  ``svgfig`` is not
measured.
"""

from __future__ import annotations

import gc
import random
import resource
import sys
from fractions import Fraction
from statistics import median

import tables
import workloads
from torusaffine import affine, collineation, fileformat, geometry, lattice, reconstruction, subtorus

LAYERS = (
    "intmat", "lattice", "geometry", "subtorus", "affine",
    "fileformat", "reconstruction", "collineation", "cli",
)
QUERY_CALLS = (
    (geometry, "line_through"),
    (geometry, "intersection_count_2d"),
    (geometry, "intersection_points"),
    (subtorus, "subtorus_span"),
    (subtorus, "line_subtorus_count"),
    (subtorus, "intersect_subtori"),
    (subtorus, "contains_point"),
    (subtorus, "image_subtorus"),
)
STARTUP_RUNS = 5
WITNESS_GRID = (2, 32)
SEARCH_M = 5


def install(tracer) -> None:
    for module, attr in QUERY_CALLS:
        tracer.patch(module, attr, f"{module.__name__.rpartition('.')[2]}.{attr}")
    tracer.patch(affine.AffineTorusAuto, "apply", "affine.apply")
    for module in (geometry, subtorus, affine):
        tracer.patch(module, "frac_matvec", "intmat.frac_matvec")
    for module in (lattice, subtorus):
        tracer.patch(module, "hnf", "lattice.hnf")
    for module in (lattice, geometry, subtorus):
        tracer.patch(module, "snf_decomposition", "lattice.snf")


def _rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


class Probe:
    """Runs every layer probe once under one tracer and derives the
    per-layer metrics; ``failures`` lists the answers its oracles refused."""

    def __init__(self, tracer, cli: workloads.Cli, seed: int):
        self.tracer = tracer
        self.cli = cli
        self.rng = random.Random(seed)
        self.seed = seed
        self.metrics: dict[str, tuple[float, str]] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def _expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def run(self) -> None:
        self.startup()
        for n, m in workloads.AffineRoundtrip.GRIDS:
            self.affine_grid(n, m)
        self.witness()
        self.search()
        self.queries()

    def startup(self) -> None:
        times = []
        for k in range(STARTUP_RUNS):
            with self.tracer.span("cli.startup"):
                code, seconds, _ = self.cli.spawn(
                    [sys.executable, "-c", "import torusaffine.cli"], f"startup{k}.out"
                )
            self._expect(code == 0, "bare import of torusaffine.cli failed")
            times.append(seconds * 1e3)
        self.metrics["cli.startup_ms"] = (median(times), "ms")

    def timed(self, name: str, fn, *args):
        """fn(*args) under a span named name; returns (result, ms)."""
        idx = self.tracer.open(name)
        try:
            result = fn(*args)
        finally:
            self.tracer.close(idx)
        span = self.tracer.spans[idx]
        return result, (span[2] - span[1]) / 1e6

    def affine_grid(self, n: int, m: int) -> None:
        a, shift, images = tables.affine_table(self.rng, n, m)
        phi = affine.AffineTorusAuto(
            tuple(map(tuple, a)), geometry.RatPoint(tuple(Fraction(s, m) for s in shift)), m
        )
        size = f"{n}x{m}"
        grid, ms = self.timed("reconstruction.from_affine", reconstruction.GridMap.from_affine, phi, n, m)
        self.metrics[f"reconstruction.from_affine_ms.{size}"] = (ms, "ms")
        self._expect(list(grid.images) == images, f"from_affine {size}")
        text, ms = self.timed("fileformat.emit", fileformat.emit_torusmap, grid)
        self.metrics[f"fileformat.emit_ms.{size}"] = (ms, "ms")
        self._expect(text == tables.emit(n, m, images), f"emit {size}")
        parsed, ms = self.timed("fileformat.parse", fileformat.parse_torusmap, text)
        self.metrics[f"fileformat.parse_ms.{size}"] = (ms, "ms")
        self._expect(list(parsed.images) == images, f"parse {size}")
        model, ms = self.timed("reconstruction.infer_affine", reconstruction.infer_affine, parsed)
        self.metrics[f"reconstruction.infer_affine_ms.{size}"] = (ms, "ms")
        ok = isinstance(model, affine.AffineTorusAuto) and tables.check_affine_map(
            model.matrix, [int(c * m) for c in model.translation.coords], n, m, images
        )
        self._expect(ok, f"infer_affine {size}")

    def witness(self) -> None:
        """Incidence build and verification at one perturbed grid, with the
        resident memory the incidence table adds."""
        n, m = WITNESS_GRID
        images = tables.perturbed_table(self.rng, n, m)
        grid = reconstruction.GridMap(n, m, tuple(images))
        collineation.build_incidence.cache_clear()
        gc.collect()
        before = _rss_mb()
        inc, ms = self.timed("collineation.build_incidence", collineation.build_incidence, n, m)
        self.metrics["collineation.incidence_rss_mb"] = (_rss_mb() - before, "MB")
        self.metrics["collineation.build_incidence_ms"] = (ms, "ms")
        self.metrics["collineation.incidence_lines"] = (len(inc.lines), "count")
        self.metrics["collineation.pair_entries"] = (len(inc.pair_lines), "count")
        del inc
        verdict, ms = self.timed(
            "reconstruction.verify_line_preserving", reconstruction.verify_line_preserving, grid
        )
        self.metrics["reconstruction.verify_line_preserving_ms"] = (ms, "ms")
        ok = isinstance(verdict, reconstruction.Witness) and tables.check_witness(
            verdict.points, verdict.line.base, verdict.line.generator, n, m, images
        )
        self._expect(ok, f"verify_line_preserving {n}x{m}")
        collineation.build_incidence.cache_clear()
        gc.collect()

    def search(self) -> None:
        """The search at SEARCH_M on one and on two workers, incidence built
        beforehand so that both time the search alone; then the whole m = 7
        search on two workers, the ROADMAP baseline case."""
        collineation.build_incidence(2, SEARCH_M)
        results = {}
        for workers in (1, 2):
            summary, ms = self.timed(
                f"collineation.search_w{workers}",
                collineation.collineation_group, 2, SEARCH_M, workers,
            )
            report = {
                "collineation_order": summary.order,
                "affine_order": summary.affine_order,
                "index": summary.index,
                "nodes": summary.nodes,
            }
            self._expect(
                tables.check_search_report(report, SEARCH_M, collineation.affine_group_order),
                f"search m={SEARCH_M} w{workers}",
            )
            results[workers] = (report, ms)
        (one, ms1), (two, ms2) = results[1], results[2]
        group = ("collineation_order", "affine_order", "index")
        self._expect(
            [one[k] for k in group] == [two[k] for k in group],
            f"search m={SEARCH_M}: workers 1 and 2 disagree",
        )
        self.metrics["collineation.search_nodes"] = (one["nodes"], "count")
        self.metrics["collineation.nodes_per_s"] = (one["nodes"] / (ms1 / 1e3), "1/s")
        self.metrics["collineation.worker_speedup"] = (ms1 / ms2, "ratio")
        summary, ms = self.timed("collineation.search_m7", collineation.collineation_group, 2, 7, 2)
        report = {"collineation_order": summary.order, "affine_order": summary.affine_order,
                  "index": summary.index, "nodes": summary.nodes}
        self._expect(
            tables.check_search_report(report, 7, collineation.affine_group_order),
            "search m=7 w2",
        )
        self.metrics["collineation.search_m7_w2_ms"] = (ms, "ms")
        self.metrics["collineation.search_m7_nodes"] = (summary.nodes, "count")
        collineation.build_incidence.cache_clear()

    def queries(self) -> None:
        geo = workloads.GeometryQueries(self.cli, self.seed)
        ops = geo.run_pass(self.tracer)
        bad = geo.failed(ops)
        self.attempted += len(ops)
        self.failures += bad.values()

    def derive(self) -> None:
        """Per-call and per-query figures from the spans of every geometry
        query in the run, and each layer's self time."""
        spans = self.tracer.spans
        queries = [s for s in spans if s[0].startswith("op.")]
        query_ops = {s[4] for s in queries}
        query_ns = sum(s[2] - s[1] for s in queries)

        def in_queries(name):
            return [s[2] - s[1] for s in spans if s[0] == name and s[4] in query_ops]

        for module, attr in QUERY_CALLS:
            name = f"{module.__name__.rpartition('.')[2]}.{attr}"
            self.metrics[name + "_us"] = (self.tracer.p50_us(name), "us")
        self.metrics["affine.apply_us"] = (self.tracer.p50_us("affine.apply"), "us")
        frac = in_queries("intmat.frac_matvec")
        self.metrics["intmat.frac_matvec_calls_per_query"] = (len(frac) / len(queries), "count")
        self.metrics["intmat.frac_matvec_share"] = (sum(frac) / query_ns, "ratio")
        self.metrics["lattice.hnf_calls_per_query"] = (len(in_queries("lattice.hnf")) / len(queries), "count")
        self.metrics["lattice.snf_calls_per_query"] = (len(in_queries("lattice.snf")) / len(queries), "count")
        self.metrics["lattice.snf_us"] = (self.tracer.p50_us("lattice.snf"), "us")
        self_ms = self.tracer.self_ms_by_layer()
        for layer in LAYERS:
            self.metrics[f"{layer}.self_ms"] = (self_ms.get(layer, 0.0), "ms")


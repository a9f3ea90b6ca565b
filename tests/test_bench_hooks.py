"""The library names the benchmark's traced run wraps, and the attributes it
reads.

``bench/layers.py`` wraps library functions by module attribute for the
length of a traced run, so a name it wraps must stay bound where it looks
for it (some are kept only for that, marked ``# noqa: F401``).  Installing
and removing the probes here catches a deleted name at once.  Its witness
probe reads the incidence table's ``lines`` and ``pair_lines`` and a
witness's ``points``, ``line.base`` and ``line.generator``; no test runs
that probe, so the check below reads the same attributes.
"""

import random
import sys
from pathlib import Path

from torusaffine.collineation import build_incidence
from torusaffine.reconstruction import GridMap, Witness, verify_line_preserving

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import tables
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return layers, tables, tracing


def test_layers_install_patches_every_wrapped_name():
    layers, _, tracing = bench_modules()
    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        patched = list(tracer._patched)
    finally:
        tracer.unpatch()
    assert len(patched) == 17
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_witness_probe_reads_incidence_sizes_and_witness_line():
    _, tables, _ = bench_modules()
    n, m = 2, 5
    inc = build_incidence(n, m)
    # 30 lines of 5 points; at a prime modulus each of the 300 point pairs
    # lies on exactly one of them
    assert (len(inc.lines), len(inc.pair_lines)) == (30, 300)
    images = tables.perturbed_table(random.Random(1), n, m)
    verdict = verify_line_preserving(GridMap(n, m, tuple(images)))
    assert isinstance(verdict, Witness)
    assert tables.check_witness(
        verdict.points, verdict.line.base, verdict.line.generator, n, m, images
    )

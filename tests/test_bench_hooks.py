"""The library names the benchmark's traced run wraps, and the attributes it
reads.

``bench/layers.py`` wraps library functions by module attribute for the
length of a traced run, so a name it wraps must stay bound where it looks
for it (some are kept only for that, marked ``# noqa: F401``).  Installing
and removing the probes here catches a deleted name at once.  Its witness
probe reads the incidence table's ``lines`` and ``pair_lines`` and a
witness's ``points``, ``line.base`` and ``line.generator``; no test runs
that probe, so the check below reads the same attributes.  The geometry
queries' answers are pinned by one digest, so a refactor of the exact
kernel that moves a canonical frame, base, count or representative shows.
"""

import hashlib
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


# sha256 of the reprs of the first 2000 seed-1 query answers, one per line;
# printed bases follow the frames of the extended-gcd Smith form.
QUERY_DIGEST = "dfd18bb8fbc0819b1ae63e2829979f33e115f0f7c3ee76552787c6fec1205831"


def test_query_answers_match_pinned_digest():
    sys.path.insert(0, str(BENCH))
    try:
        import queries
    finally:
        sys.path.remove(str(BENCH))
    digest = hashlib.sha256()
    for kind, args in queries.QueryStream(1).batch(2000):
        result = queries.run(kind, args)
        assert queries.check(kind, args, result), (kind, args)
        digest.update(repr(result).encode() + b"\n")
    assert digest.hexdigest() == QUERY_DIGEST

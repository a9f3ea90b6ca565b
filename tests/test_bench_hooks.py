"""The library names the benchmark's traced run wraps.

``bench/layers.py`` wraps library functions by module attribute for the
length of a traced run, so a name it wraps must stay bound where it looks
for it (some are kept only for that, marked ``# noqa: F401``).  Installing
and removing the probes here catches a deleted name at once.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_layers_install_patches_every_wrapped_name():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        patched = list(tracer._patched)
    finally:
        tracer.unpatch()
    assert len(patched) == 17
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original

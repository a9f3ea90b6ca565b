"""In-memory spans around calls into the library's layers.

A span is ``[name, start_ns, end_ns, parent, op, child_ns]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``op`` the id of the
operation it belongs to, and ``child_ns`` the time covered by its direct
children, so a span's self time is its duration minus ``child_ns``.  The
layer of a span is its name up to the first dot.  Spans are kept in a list
and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager, nullcontext
from statistics import median
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self._op, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter_ns()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def op(self, name: str):
        """A top-level span that starts a new operation; spans opened
        outside any operation get op id -1."""
        self._ops += 1
        self._op = self._ops
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self._op = -1

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        Patching a module attribute catches every call that looks the name
        up in that module, which is how the library calls across modules.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(idx)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ queries

    def durations(self, name: str) -> list[int]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def p50_us(self, name: str) -> float:
        return median(self.durations(name)) / 1e3

    def self_ms_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _, _, child in self.spans:
            layer = name.partition(".")[0]
            out[layer] = out.get(layer, 0.0) + (end - start - child) / 1e6
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "op", "child_ns"],
                 "spans": self.spans},
                fh,
            )


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    _none = nullcontext()

    def span(self, name: str):
        return self._none

    op = span


NULL = NullTracer()

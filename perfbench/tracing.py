"""In-memory spans around the program's public functions, for the traced run.

A span is [name, start, end, parent index].  Functions are wrapped where
their caller looks them up (for example ``engine.expect_block`` or
``montecarlo.spectral_norm_batch``), so the program itself is not edited.
The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open_span(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close_span(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.open_span(name)
        try:
            yield
        finally:
            self.close_span(rec)

    def wrap(self, owner, attr: str, span_name: str | None, count=None, wrap_args=None):
        """Replace owner.attr by a wrapper that counts and/or records a span.

        count(counter, *args, **kwargs) adds to the counts; wrap_args may
        rewrite the arguments (used to time the integrand passed to
        truncated_sum).
        """
        orig = getattr(owner, attr)
        tracer = self

        @wraps(orig)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(tracer.counts, *args, **kwargs)
            if wrap_args is not None:
                args, kwargs = wrap_args(tracer, args, kwargs)
            if span_name is None:
                return orig(*args, **kwargs)
            rec = tracer.open_span(span_name)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.close_span(rec)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def span_times(spans: list[list], offset: int) -> tuple[Counter, Counter]:
    """(total, self) seconds per span name.

    `spans` is a slice of the full list starting at index `offset`; parent
    indices are positions in the full list.  Spans nest on one thread, so
    the direct children of a span cover disjoint parts of it and self time
    is its duration minus theirs.
    """
    total: Counter = Counter()
    covered: dict[int, float] = {}
    for name, start, end, parent in spans:
        dur = end - start
        total[name] += dur
        if parent >= 0:
            covered[parent] = covered.get(parent, 0.0) + dur
    selft: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        selft[name] += (end - start) - covered.get(offset + i, 0.0)
    return total, selft

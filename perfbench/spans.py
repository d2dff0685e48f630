"""In-memory spans for the benchmark's traced runs.

A span records its name, start, end and the span open around it.  Spans are
kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every closed span with this name."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict:
        """name -> summed self time: each span's duration minus its children's."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "self_s": self.self_times()}, fh)


class NullTracer:
    """Stands in for `Tracer` in untraced runs; records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

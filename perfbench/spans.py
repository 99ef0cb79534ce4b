"""In-memory spans around calls into claimflow's public functions.

A span records its name, layer, start, end, parent span and request id.
Spans stay in memory and are written out once, when the run ends.  The
untraced run uses ``NoTrace``, whose ``call`` is a plain function call.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class NoTrace:
    """Tracing off: calls go straight through."""

    def call(self, layer, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def request(self, request_id):
        yield


class Tracer:
    """Single-threaded span recorder; the benchmark makes all calls from one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._request = None

    @contextmanager
    def span(self, layer: str, name: str):
        index = len(self.spans)
        record = {"name": name, "layer": layer, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "request": self._request}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except Exception:
            self.errors[layer] += 1
            raise
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def call(self, layer, name, fn, *args, **kwargs):
        with self.span(layer, name):
            return fn(*args, **kwargs)

    @contextmanager
    def request(self, request_id):
        """Group the spans of one request under a root span sharing its id."""
        outer = self._request
        self._request = request_id
        try:
            with self.span("bench", "request"):
                yield
        finally:
            self._request = outer

    def durations(self, name: str, request=None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (request is None or s["request"] == request)]

    def self_times(self, requests=None) -> dict[str, float]:
        """Seconds per layer, each span's duration minus the time its children cover.

        Children run on the caller's thread inside their parent, so they never
        overlap and their durations add up.
        """
        child_time: defaultdict = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: defaultdict = defaultdict(float)
        for i, s in enumerate(self.spans):
            if requests is None or s["request"] in requests:
                out[s["layer"]] += (s["end"] - s["start"]) - child_time[i]
        return dict(out)

    def write(self, path: Path, extra: dict) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(dict(extra, spans=spans), indent=1) + "\n", encoding="utf-8")

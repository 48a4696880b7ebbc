"""In-memory spans around the benchmark's calls into the library, written out at the end.

A span records name, layer, start, end and parent.  The layer is the fptsim
module whose public function the span wraps (rng, bridge, drift, samplers,
harness, cli), ``import`` for the package import, ``bench`` for the
benchmark's own code and ``untraced`` for rounds timed without inner spans.
Spans are single-threaded and strictly nested.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records spans when enabled; a disabled tracer's ``span`` only yields."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, layer):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.monotonic(), "end": None}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()

    def self_seconds(self):
        """Seconds per layer of span time not covered by child spans."""
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)

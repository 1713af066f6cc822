"""Spans around the benchmark's calls into each layer.

A span records name, start, end, parent span and request id. Spans stay
in memory and are written once, when the benchmark ends. With tracing
off, `span` hands back a shared no-op context and records nothing.
"""

import json
import threading
import time


class _Noop:
    id = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _Noop()


class _Span:
    def __init__(self, tracer, name, rid):
        self.tracer, self.name, self.rid = tracer, name, rid

    def __enter__(self):
        stack = self.tracer._stack()
        self.rec = {
            "name": self.name,
            "rid": self.rid,
            "parent": stack[-1]["id"] if stack else None,
            "start_ns": time.monotonic_ns(),
        }
        with self.tracer._lock:
            self.id = self.rec["id"] = len(self.tracer.spans)
            self.tracer.spans.append(self.rec)
        stack.append(self.rec)
        return self

    def __exit__(self, *exc):
        self.rec["end_ns"] = time.monotonic_ns()
        self.tracer._stack().pop()
        return False


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name, rid=""):
        return _Span(self, name, rid) if self.enabled else _NOOP

    def record(self, name, rid, start_ns, end_ns, parent=None):
        """Adds a span whose interval was measured elsewhere."""
        if not self.enabled:
            return None
        with self._lock:
            rec = {"name": name, "rid": rid, "parent": parent, "id": len(self.spans),
                   "start_ns": start_ns, "end_ns": end_ns}
            self.spans.append(rec)
        return rec["id"]

    def adopt(self, lines, parent_span, base_ns):
        """Adds the spans a child process wrote (JSON lines with ids local
        to that process, times relative to its own start) under
        `parent_span`, shifting their times by `base_ns`."""
        if not self.enabled:
            return
        remap = {}
        for line in lines:
            rec = json.loads(line)
            if "span" not in rec:
                continue
            parent = remap.get(rec["parent"], parent_span)
            remap[rec["id"]] = self.record(rec["span"], rec["rid"], base_ns + rec["start_ns"],
                                           base_ns + rec["end_ns"], parent)

    def self_times(self):
        """Seconds of self time and span count per span name. A span's
        self time is its duration minus the part of it that its children
        cover."""
        children = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
        out = {}
        for s in self.spans:
            lo, hi = s["start_ns"], s["end_ns"]
            covered, reach = 0, lo
            for a, b in sorted(children.get(s["id"], [])):
                a, b = max(a, reach), min(b, hi)
                if b > a:
                    covered += b - a
                    reach = b
            total, n = out.get(s["name"], (0.0, 0))
            out[s["name"]] = (total + (hi - lo - covered) / 1e9, n + 1)
        return out

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s, sort_keys=True) + "\n")

"""In-memory spans recorded from outside the library.

A span has a name, start and end (perf_counter seconds), the id of the span
that was open when it started, its CPU time, the process's peak RSS when it
ended and a dict of counts. ``patch`` swaps a module attribute for a wrapper
that opens a span around every call, so the library itself stays untouched;
``restore`` puts every original back. Spans are written out only at the end.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        cpu0 = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_s"] = time.process_time() - cpu0
            rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self._stack.pop()

    def patch(self, module, attr: str, name: str,
              on_call: Optional[Callable] = None, on_error: Optional[Callable] = None) -> None:
        """Wrap ``module.attr``; ``on_call(rec, args, kwargs, result)`` adds counts.

        ``on_error(rec, exc)`` sees an exception before it propagates.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(rec, exc)
                    raise
                if on_call is not None:
                    on_call(rec, args, kwargs, result)
                return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def count(self, name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(s, self_s=selfs[s["id"]])) + "\n")

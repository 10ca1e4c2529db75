"""In-memory span tracer for the traced benchmark run.

A span is one call across a layer boundary: a name, a start and an end
(host ``perf_counter`` seconds), the span that caused it, and the id of
the request it serves.  Spans stay in memory while the benchmark runs
and are written out once at the end.  A disabled tracer records nothing
and costs one attribute check per boundary, so the untraced runs that
give the end-to-end metrics measure the program, not the tracer.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Iterator, Optional


class Tracer:
    """Records spans; thread-safe (the service client runs two threads)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def current(self) -> Optional[dict]:
        """The innermost open span of this thread, to hand to another."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None,
             parent: Optional[dict] = None) -> Iterator[None]:
        """Time the body as one span, parented on ``parent`` or else the
        innermost open span of this thread.  ``request`` tags every span
        of one service request (children inherit it)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if request is None and parent is not None:
            request = parent["request"]
        with self._lock:
            span_id = next(self._ids)
        record = {"id": span_id, "name": name,
                  "parent": parent["id"] if parent else None,
                  "request": request, "start": time.perf_counter(),
                  "end": None}
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def self_times(self) -> dict:
        """Self seconds per span name: each span's duration minus the part
        of its interval that its children cover (children of one parent
        may overlap when they run on different threads)."""
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        totals: dict = defaultdict(float)
        for s in self.spans:
            covered = 0.0
            reach = s["start"]
            for start, end in sorted(children.get(s["id"], ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            totals[s["name"]] += (s["end"] - s["start"]) - covered
        return dict(totals)

    def span_cost(self, count: int = 20000) -> float:
        """Seconds one recorded span costs, timed on a scratch tracer."""
        scratch = Tracer(True)
        start = time.perf_counter()
        for _ in range(count):
            with scratch.span("cost"):
                pass
        return (time.perf_counter() - start) / count

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.spans, key=lambda s: s["id"])
        path.write_text(json.dumps(ordered, indent=0, sort_keys=True))

"""In-memory span recorder that times calls into segtta from outside it.

The benchmark never edits the library: it swaps module attributes for timing
wrappers while a traced pass runs and puts the originals back afterwards.
A span records name, start, end, parent, case id and thread.  Spans opened on
a thread with nothing on its stack (the hypothesis threads of
``pipeline.run_case``, the cohort threads of ``run_cohort``) take as parent
the open root span of the same case id, so the tree survives the thread hop.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None
    thread: str
    phase: str
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "pass"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._case_roots: dict[str, Span] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, case: str | None = None):
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._case_roots.get(case)
            if case is None and parent is not None:
                case = parent.case
            s = Span(next(self._ids), name, 0.0, 0.0, parent.id if parent else None,
                     case, threading.current_thread().name, self.phase)
            is_root = not stack and case is not None and case not in self._case_roots
            if is_root:
                self._case_roots[case] = s
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                if is_root:
                    del self._case_roots[case]
                self.spans.append(s)

    def timed(self, name: str, fn, nbytes=None):
        """``fn`` wrapped so each call records a span; the case id comes from
        the first argument when it has a ``case_id``; ``nbytes(args, result)``
        sizes the payload of I/O calls."""

        def wrapper(*args, **kwargs):
            case = getattr(args[0], "case_id", None) if args else None
            with self.span(name, case) as s:
                result = fn(*args, **kwargs)
                if nbytes is not None:
                    s.nbytes = nbytes(args, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, nbytes=None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.timed(name, original, nbytes))

    def patch_factory(self, module, attr: str, name: str) -> None:
        """Wrap the closure that ``module.attr(...)`` returns, not the factory."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, lambda *a, **k: self.timed(name, original(*a, **k)))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------------------
    # summaries

    def of(self, name: str, phase: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.phase == phase]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            if s.parent in by_id:
                p = by_id[s.parent]
                children.setdefault(p.id, []).append((max(s.start, p.start), min(s.end, p.end)))
        return {s.id: s.duration - union_length(children.get(s.id, ())) for s in self.spans}

    def layer_table(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time (ms), median call (ms)."""
        selfs = self.self_times()
        table: dict[str, dict[str, float]] = {}
        for name in sorted({s.name for s in self.spans if s.phase == phase}):
            spans = self.of(name, phase)
            table[name] = {
                "calls": len(spans),
                "total_ms": 1e3 * sum(s.duration for s in spans),
                "self_ms": 1e3 * sum(selfs[s.id] for s in spans),
                "median_ms": 1e3 * statistics.median(s.duration for s in spans),
            }
        return table

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"header": header}) + "\n")
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")

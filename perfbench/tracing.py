"""Spans recorded from outside the program, around its public entry points.

:class:`Tracer` wraps named methods on their classes for the duration
of a traced run and restores them afterwards; no source file changes.
Each span is a list ``[id, parent, request, name, start, end, items]``:
``parent`` is the span open on the same thread when it began (0 for a
root), ``request`` is inherited from the thread's root span, and
``items`` is the work count the wrapper saw (queries, shards).  Spans
stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time

SPAN_ID, PARENT, REQUEST, NAME, START, END, ITEMS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, items: int = 0) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, request = stack[-1][SPAN_ID], stack[-1][REQUEST]
        else:
            parent, request = 0, span_id
        span = [span_id, parent, request, name, time.perf_counter(), 0.0, items]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, values) -> None:
        with self._lock:
            self.samples.setdefault(name, []).extend(values)

    # -- wrapping -------------------------------------------------------
    def wrap(self, owner, attr: str, name: str | None, items=None, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``items(args, kwargs)`` gives the span's work count.  With ``name``
        None no span is recorded; ``after(args, result)`` runs after each
        call instead.
        """
        original = owner.__dict__.get(attr)
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def observed(*args, **kwargs):
            result = target(*args, **kwargs)
            after(args, result)
            return result

        @functools.wraps(target)
        def traced(*args, **kwargs):
            span = tracer.begin(name, items(args, kwargs) if items else 0)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.end(span)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced if name is not None else observed)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- output ---------------------------------------------------------
    def write(self, path) -> None:
        fields = ["id", "parent", "request", "name", "start", "end", "items"]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle, separators=(",", ":"))


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT]:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span[SPAN_ID], ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span[SPAN_ID]] = (end - start) - covered
    return result

"""Spans for the benchmark's traced run: recording in a request process,
self-time rollup in ``run.py``.

A span is one timed call into a layer's entry point, stored as
``[name, start, end, parent]`` where ``parent`` is the index of the
enclosing span in the same list, or ``None`` for a root.  A request
process keeps its spans in memory and writes them out once, when it
exits; ``run.py`` keeps every request's spans in memory and writes them
out when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Sequence, Tuple


class SpanRecorder:
    """In-memory span list with a call stack for parent links.

    Single-threaded by design: the request processes it runs in execute
    one layer call at a time (serial studies, in-process backend).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (e.g. an import)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent])

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with every call recorded as a span called ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def timed(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return timed

    def to_dict(self) -> Dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        inside = [
            (max(child_start, start), min(child_end, end))
            for child_start, child_end in children[index]
            if child_end > start and child_start < end
        ]
        result.append((end - start) - covered(inside))
    return result


def rollup(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (summed duration), ``self_s``."""
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        layer = layers[span[0]]
        layer["calls"] += 1
        layer["busy_s"] += span[2] - span[1]
        layer["self_s"] += own
    return dict(layers)


def merged(documents: Iterable[Dict]) -> Tuple[List[list], Dict[str, int]]:
    """One span list (parents re-indexed) and summed counts from several
    request documents."""
    spans: List[list] = []
    counts: Dict[str, int] = defaultdict(int)
    for document in documents:
        base = len(spans)
        spans.extend(
            [name, start, end, None if parent is None else parent + base]
            for name, start, end, parent in document["spans"]
        )
        for name, value in document["counts"].items():
            counts[name] += value
    return spans, dict(counts)

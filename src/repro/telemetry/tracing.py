"""Structured tracing: nested spans exported to a rotating JSONL log.

A :class:`Tracer` produces :class:`Span` records — each with a
``trace_id`` shared by every span of one logical operation, its own
``span_id``, the ``parent_id`` of the enclosing span (``None`` for
roots), wall-clock start/duration and free-form attributes.  Nesting is
tracked per thread, so a multi-threaded server interleaving requests
never cross-links spans.

Two usage styles, both no-ops when tracing is disabled::

    from repro.telemetry import get_tracer, traced

    with get_tracer().span("engine.cache_lookup", layers=12) as span:
        ...
        span.set(hits=9, misses=3)

    @traced("study.point")
    def measure(point): ...

The process-wide tracer is disabled unless ``REPRO_TELEMETRY_DIR`` is
set (or :func:`configure` is called with a directory, which is what the
``--telemetry-dir`` CLI flag does).  The disabled fast path allocates
nothing and writes nothing — one shared no-op span object is returned —
so instrumented code paths stay bit-identical to uninstrumented ones.

Enabled tracers append one JSON object per finished span to
``<dir>/events-00001.jsonl``; when a segment exceeds 32 MiB the writer
rolls to the next numbered segment and keeps only the last 8 segments.
Records never rewrite — the log is append-only, safe to tail — and
:mod:`repro.telemetry.view` (the ``repro trace`` subcommand) renders any
segment back into a span tree.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, Optional

#: Default rotation policy: roll segments at 32 MiB, keep the last 8.
DEFAULT_MAX_BYTES = 32 * 1024 * 1024
DEFAULT_MAX_FILES = 8

#: Environment variable enabling the process-wide tracer.
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"


def _new_id(bits: int = 64) -> str:
    """A random lowercase-hex identifier (64-bit spans, 128-bit traces)."""
    return uuid.uuid4().hex[: bits // 4]


class JsonlWriter:
    """Append-only, size-rotated JSONL segment writer (thread-safe).

    Segments are named ``<prefix>-00001.jsonl`` and numbered forever
    upward; writing resumes into the highest existing segment, so
    restarted processes append rather than clobber.
    """

    def __init__(
        self,
        directory,
        prefix: str = "events",
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_files: int = DEFAULT_MAX_FILES,
    ):
        self.directory = Path(directory)
        self.prefix = prefix
        self.max_bytes = int(max_bytes)
        self.max_files = max(1, int(max_files))
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        existing = self._segments()
        self._index = self._segment_number(existing[-1]) if existing else 1
        self._handle = None
        self.records_written = 0

    # ------------------------------------------------------------------
    def _segments(self):
        return sorted(self.directory.glob(f"{self.prefix}-*.jsonl"))

    @staticmethod
    def _segment_number(path: Path) -> int:
        try:
            return int(path.stem.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return 1

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"{self.prefix}-{index:05d}.jsonl"

    @property
    def current_path(self) -> Path:
        """The segment the next record will land in (for tailing)."""
        return self._segment_path(self._index)

    def write(self, record: Dict) -> None:
        """Append one record, rotating segments past ``max_bytes``.

        The current segment's handle is kept open between records (each
        record is flushed, so the log stays tailable); rotation closes
        it and opens the next numbered segment.
        """
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            if self._handle is None:
                self._handle = open(self._segment_path(self._index), "ab")
            size = self._handle.tell()
            if size and size + len(data) > self.max_bytes:
                self._handle.close()
                self._index += 1
                self._prune()
                self._handle = open(self._segment_path(self._index), "ab")
            self._handle.write(data)
            self._handle.flush()
            self.records_written += 1

    def close(self) -> None:
        """Close the current segment handle (safe to call repeatedly)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def _prune(self) -> None:
        segments = self._segments()
        for stale in segments[: max(0, len(segments) - self.max_files + 1)]:
            try:
                stale.unlink()
            except OSError:
                pass


class _NoopSpan:
    """The shared span returned while tracing is disabled: does nothing."""

    __slots__ = ()

    def set(self, **attributes) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed operation; export happens on context-manager exit."""

    __slots__ = (
        "tracer", "name", "trace_id", "span_id", "parent_id",
        "start_s", "duration_s", "attributes", "_perf_start",
    )

    def __init__(self, tracer: "Tracer", name: str,
                 trace_id: str, parent_id: Optional[str], attributes: Dict):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id(64)
        self.parent_id = parent_id
        self.start_s = time.time()
        self.duration_s = 0.0
        self.attributes = attributes
        self._perf_start = time.perf_counter()

    def set(self, **attributes) -> "Span":
        """Merge attributes (``None`` values are dropped, not recorded)."""
        for key, value in attributes.items():
            if value is not None:
                self.attributes[key] = value
        return self

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._perf_start
        if exc is not None:
            self.attributes["error"] = f"{type(exc).__name__}: {exc}"
        self.tracer._pop(self)
        self.tracer._export(self)
        return False

    def to_record(self) -> Dict:
        """The JSONL document for this span (validated by the schema)."""
        return {
            "type": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 9),
            "attributes": self.attributes,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
        }


class Tracer:
    """Produces spans and exports them to a JSONL event log.

    ``directory=None`` builds a *disabled* tracer: :meth:`span` returns
    the shared no-op span and nothing is ever written — the fast path
    every instrumentation site takes by default.
    """

    def __init__(self, directory=None):
        self.directory = str(directory) if directory else None
        self.writer = JsonlWriter(directory) if directory else None
        self._local = threading.local()
        self.spans_emitted = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.writer is not None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:   # exited out of order; drop it anyway
            stack.remove(span)

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread (``None`` at top level)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes):
        """Open a span as a context manager; no-op when disabled."""
        if self.writer is None:
            return NOOP_SPAN
        parent = self.current_span()
        return Span(
            self, name,
            trace_id=parent.trace_id if parent else _new_id(128),
            parent_id=parent.span_id if parent else None,
            attributes={k: v for k, v in attributes.items() if v is not None},
        )

    def _export(self, span: Span) -> None:
        if self.writer is not None:
            self.writer.write(span.to_record())
            self.spans_emitted += 1

    def emit_metrics(self, registry) -> None:
        """Append one metrics-snapshot record (no-op when disabled)."""
        if self.writer is None:
            return
        self.writer.write({
            "type": "metrics",
            "time_s": round(time.time(), 6),
            "pid": os.getpid(),
            "metrics": registry.as_dict(),
        })

    def close(self) -> None:
        """Release the writer's file handle (the tracer stays usable)."""
        if self.writer is not None:
            self.writer.close()

    def describe(self) -> Dict:
        """Status payload for ``/v1/health`` and session stats."""
        return {
            "enabled": self.enabled,
            "dir": self.directory,
            "spans_emitted": self.spans_emitted,
        }


# ----------------------------------------------------------------------
# the process-wide tracer

_GLOBAL_LOCK = threading.Lock()
_GLOBAL_TRACER: Optional[Tracer] = None


def get_tracer() -> Tracer:
    """The process-wide tracer (lazily built from ``REPRO_TELEMETRY_DIR``)."""
    global _GLOBAL_TRACER
    tracer = _GLOBAL_TRACER
    if tracer is None:
        with _GLOBAL_LOCK:
            if _GLOBAL_TRACER is None:
                _GLOBAL_TRACER = Tracer(os.environ.get(TELEMETRY_DIR_ENV) or None)
            tracer = _GLOBAL_TRACER
    return tracer


def configure(directory=None) -> Tracer:
    """Replace the process-wide tracer (``directory=None`` disables it).

    Reconfiguring with the directory the current tracer already writes
    to keeps it — span counters and rotation state survive, and every
    :class:`repro.api.Session` built in one process shares one tracer.
    """
    global _GLOBAL_TRACER
    with _GLOBAL_LOCK:
        current = _GLOBAL_TRACER
        target = str(directory) if directory else None
        if current is not None and current.directory == target:
            return current
        if current is not None:
            current.close()
        _GLOBAL_TRACER = Tracer(directory)
        return _GLOBAL_TRACER


def traced(name: Optional[str] = None, **attributes):
    """Decorator form: run the wrapped callable inside a span.

    The span name defaults to the function's qualified name; the tracer
    is resolved at call time, so functions decorated before telemetry is
    configured still trace once it is enabled.
    """

    def decorate(function):
        span_name = name or function.__qualname__

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with get_tracer().span(span_name, **attributes):
                return function(*args, **kwargs)

        return wrapper

    return decorate

"""Process-wide metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` holds named instruments, each optionally
labelled (``repro_cache_hits_total{tier="memo"}``), and renders them two
ways:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``text/plain; version=0.0.4``), what
  ``GET /v1/metrics`` serves to a scraper;
* :meth:`MetricsRegistry.as_dict` — a structured JSON document (the
  ``?format=json`` variant, also embedded in telemetry metrics-snapshot
  records).

All instruments are thread-safe (one lock per metric) and cheap enough
to feed from the engine's hot paths: the engine increments them at the
same batch granularity it maintains :class:`~repro.engine.EngineStats` —
per ``simulate_layers`` call, never per layer — so the registry is the
live view of the counters the stats records already carry, not a second
accounting implementation.

The standard catalogue (see ``docs/observability.md``) is created on the
default registry at import time, so a scrape always shows every series
name even before traffic arrives; grab instruments via the module-level
constants (``CACHE_HITS.inc(3, tier="memo")``).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): sub-100ms health checks through
#: multi-minute explore studies.
LATENCY_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)

#: Fraction buckets for ratio-valued observations (stall fractions).
FRACTION_BUCKETS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Metric:
    """Base class: a named instrument with a fixed label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], object] = {}

    # ------------------------------------------------------------------
    def _key(self, label_values: Dict[str, object]) -> Tuple[str, ...]:
        if set(label_values) != set(self.labels):
            raise ValueError(
                f"metric {self.name!r} takes labels {sorted(self.labels)}, "
                f"got {sorted(label_values)}"
            )
        return tuple(str(label_values[label]) for label in self.labels)

    def _label_text(self, key: Tuple[str, ...]) -> str:
        if not self.labels:
            return ""
        pairs = ",".join(
            f'{label}="{_escape_label_value(value)}"'
            for label, value in zip(self.labels, key)
        )
        return "{" + pairs + "}"

    def _sorted_series(self):
        return sorted(self._series.items())

    # Rendering hooks subclasses implement -----------------------------
    def render(self) -> List[str]:
        raise NotImplementedError

    def snapshot(self) -> Dict:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing sum (``*_total`` by convention)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))

    def render(self) -> List[str]:
        with self._lock:
            items = self._sorted_series()
        return [
            f"{self.name}{self._label_text(key)} {_format_value(value)}"
            for key, value in items
        ]

    def snapshot(self) -> Dict:
        with self._lock:
            items = self._sorted_series()
        return {
            "type": self.kind,
            "help": self.help,
            "values": [
                {"labels": dict(zip(self.labels, key)), "value": value}
                for key, value in items
            ],
        }


class Gauge(Metric):
    """A value that can go up and down (sizes, uptimes, temperatures)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))

    render = Counter.render
    snapshot = Counter.snapshot


class Histogram(Metric):
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    everything.  Per label set the histogram keeps cumulative bucket
    counts, the observation sum and the observation count.
    """

    kind = "histogram"

    def __init__(self, name, help, buckets: Sequence[float], labels=()):
        super().__init__(name, help, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {self.name!r} needs at least one bucket")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        value = float(value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = {
                    "counts": [0] * (len(self.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series["counts"][index] += 1
                    break
            else:
                series["counts"][-1] += 1
            series["sum"] += value
            series["count"] += 1

    def value(self, **labels) -> int:
        """The observation count for one label set (0 when unseen)."""
        with self._lock:
            series = self._series.get(self._key(labels))
            return int(series["count"]) if series else 0

    def _cumulative(self, counts: List[int]) -> List[int]:
        total = 0
        output = []
        for count in counts:
            total += count
            output.append(total)
        return output

    def render(self) -> List[str]:
        with self._lock:
            items = [
                (key, list(series["counts"]), series["sum"], series["count"])
                for key, series in self._sorted_series()
            ]
        lines = []
        bounds = list(self.buckets) + [math.inf]
        for key, counts, total_sum, count in items:
            cumulative = self._cumulative(counts)
            for bound, running in zip(bounds, cumulative):
                labels = dict(zip(self.labels, key))
                labels["le"] = _format_value(bound)
                pairs = ",".join(
                    f'{name}="{_escape_label_value(value)}"'
                    for name, value in labels.items()
                )
                lines.append(f"{self.name}_bucket{{{pairs}}} {running}")
            suffix = self._label_text(key)
            lines.append(f"{self.name}_sum{suffix} {_format_value(total_sum)}")
            lines.append(f"{self.name}_count{suffix} {count}")
        return lines

    def snapshot(self) -> Dict:
        with self._lock:
            items = [
                (key, list(series["counts"]), series["sum"], series["count"])
                for key, series in self._sorted_series()
            ]
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "values": [
                {
                    "labels": dict(zip(self.labels, key)),
                    "counts": counts,
                    "sum": total_sum,
                    "count": count,
                }
                for key, counts, total_sum, count in items
            ],
        }


class MetricsRegistry:
    """A named collection of instruments with idempotent registration."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: "Dict[str, Metric]" = {}

    # ------------------------------------------------------------------
    def _register(self, metric: Metric) -> Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if (type(existing) is not type(metric)
                        or existing.labels != metric.labels):
                    raise ValueError(
                        f"metric {metric.name!r} already registered with a "
                        f"different type or label set"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(self, name: str, help: str, labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help, labels))

    def gauge(self, name: str, help: str, labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help, labels))

    def histogram(
        self, name: str, help: str,
        buckets: Sequence[float] = LATENCY_BUCKETS, labels: Sequence[str] = (),
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets, labels))

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines = []
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def as_dict(self) -> Dict:
        """The structured JSON variant of the same data."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return {metric.name: metric.snapshot() for metric in metrics}


# ----------------------------------------------------------------------
# the default registry and the standard catalogue

_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry ``GET /v1/metrics`` serves."""
    return _DEFAULT_REGISTRY


#: Session/API requests completed, by request kind.
REQUESTS_TOTAL = _DEFAULT_REGISTRY.counter(
    "repro_requests_total",
    "Session requests served, by request kind.",
    labels=("kind",),
)
#: End-to-end request latency, by request kind.
REQUEST_SECONDS = _DEFAULT_REGISTRY.histogram(
    "repro_request_seconds",
    "Session request latency in seconds, by request kind.",
    buckets=LATENCY_BUCKETS,
    labels=("kind",),
)
#: Layers actually simulated (cache misses that ran).
LAYERS_SIMULATED = _DEFAULT_REGISTRY.counter(
    "repro_layers_simulated_total",
    "Traced layers simulated by the scheduling kernel (cache misses).",
)
#: Cache hits attributed to the tier that served them.
CACHE_HITS = _DEFAULT_REGISTRY.counter(
    "repro_cache_hits_total",
    "Layer-result cache hits, by serving tier (memo, disk).",
    labels=("tier",),
)
#: Lookups that missed every configured tier.
CACHE_MISSES = _DEFAULT_REGISTRY.counter(
    "repro_cache_misses_total",
    "Layer-result cache lookups that missed every tier.",
)
#: Stall-cycle fraction observed per simulated design point / roofline run.
STALL_FRACTION = _DEFAULT_REGISTRY.histogram(
    "repro_stall_fraction",
    "Memory-stall cycle fraction of simulated runs (0 = compute bound).",
    buckets=FRACTION_BUCKETS,
)
#: Design points executed by study runs (sweep/explore).
STUDY_POINTS = _DEFAULT_REGISTRY.counter(
    "repro_study_points_total",
    "Design-space study points executed (resumed points excluded).",
)
#: HTTP traffic served by ``repro serve``.
HTTP_REQUESTS = _DEFAULT_REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP responses sent by the batch service, by method and status.",
    labels=("method", "status"),
)
#: Training traces held warm by the engine's trace LRU.
CACHED_TRACES = _DEFAULT_REGISTRY.gauge(
    "repro_session_cached_traces",
    "Training traces currently cached in memory by the engine.",
)
#: Trace-store lookups of engines with a cache dir, by outcome.
TRACE_STORE = _DEFAULT_REGISTRY.counter(
    "repro_trace_store_total",
    "Training-trace lookups in the cache dir, by result (hit, miss).",
    labels=("result",),
)
#: Asynchronous job state transitions (a job increments every state it enters).
JOBS_TOTAL = _DEFAULT_REGISTRY.counter(
    "repro_jobs_total",
    "Asynchronous job state transitions, by state entered.",
    labels=("state",),
)
#: Jobs submitted but not yet claimed by a worker thread.
JOB_QUEUE_DEPTH = _DEFAULT_REGISTRY.gauge(
    "repro_job_queue_depth",
    "Asynchronous jobs waiting for a worker thread.",
)
#: Execution time of finished jobs (queue wait excluded).
JOB_SECONDS = _DEFAULT_REGISTRY.histogram(
    "repro_job_seconds",
    "Asynchronous job execution duration in seconds (queue wait excluded).",
    buckets=LATENCY_BUCKETS,
)

# Pre-create the per-tier series so a scrape shows the whole cache
# hierarchy from the first request, hits or not.
for _tier in ("memo", "disk"):
    CACHE_HITS.inc(0, tier=_tier)
CACHE_MISSES.inc(0)
for _result in ("hit", "miss"):
    TRACE_STORE.inc(0, result=_result)
# Likewise every job state, so dashboards see the full lifecycle from
# the first scrape (mirrors repro.api.schema.JOB_STATES; kept literal —
# this module sits below the API layer).
for _state in ("queued", "running", "succeeded", "failed", "cancelled"):
    JOBS_TOTAL.inc(0, state=_state)

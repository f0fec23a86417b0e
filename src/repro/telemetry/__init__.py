"""``repro.telemetry``: structured tracing and metrics for every layer.

The instrumentation plane of the reproduction — zero new dependencies,
two halves:

* :mod:`repro.telemetry.tracing` — a :class:`Tracer` producing nested
  spans (trace/span/parent ids, wall time, attributes) exported to an
  append-only JSONL event log with size-based rotation.  Disabled by
  default; enabled via ``--telemetry-dir`` / ``REPRO_TELEMETRY_DIR``.
  When disabled every instrumentation site costs one no-op call, so all
  simulation outputs stay bit-identical (property-tested).
* :mod:`repro.telemetry.metrics` — a process-wide registry of counters,
  gauges and fixed-bucket histograms (request latency, layers simulated,
  cache hits per tier, stall fractions) fed by the same code paths that
  maintain :class:`~repro.engine.EngineStats`, rendered in Prometheus
  text format or structured JSON by ``GET /v1/metrics``.

:mod:`repro.telemetry.schema` validates emitted JSONL records (the CI
telemetry smoke step runs it over a real run's log) and
:mod:`repro.telemetry.view` renders a recorded log as a span tree with
self/total times — the ``repro trace`` subcommand.

See ``docs/observability.md`` for the span model and metrics catalogue.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TelemetryRecordError",
    "Tracer",
    "configure",
    "get_registry",
    "get_tracer",
    "traced",
    "validate_record",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry",
    ),
    "repro.telemetry.tracing": (
        "Span", "Tracer", "configure", "get_tracer", "traced",
    ),
    "repro.telemetry.schema": ("TelemetryRecordError", "validate_record"),
})

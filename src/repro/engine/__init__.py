"""The simulation engine: result cache, counters, option resolution.

This package is the execution layer between the accelerator model
(:mod:`repro.core`) and everything that drives whole-model experiments
(:mod:`repro.simulation.runner`, the CLI, the benchmark harness):

* :mod:`repro.engine.cache` — the content-addressed on-disk cache of
  layer compute parts and training traces;
* :mod:`repro.engine.engine` — :class:`SimulationEngine`, which puts the
  cache stack (disk and/or in-process memo) in front of
  :meth:`repro.simulation.cycle_sim.LayerSimulator.compute_layers`,
  finalizes every layer and tracks :class:`EngineStats`;
* :mod:`repro.engine.options` — :func:`resolve_engine_options`, the single
  place the cache-dir/telemetry precedence (argument > ``REPRO_*`` env
  var > default) is decided for every entry point.

There is no multi-process layer: each request, a study included, runs
in one process on one engine.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ResultCache",
    "CACHE_SCHEMA_VERSION",
    "compute_fingerprint",
    "trace_fingerprint",
    "layer_key",
    "EngineStats",
    "SimulationEngine",
    "EngineOptions",
    "resolve_engine_options",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.engine.cache": (
        "CACHE_SCHEMA_VERSION", "ResultCache", "compute_fingerprint",
        "layer_key", "trace_fingerprint",
    ),
    "repro.engine.engine": ("EngineStats", "SimulationEngine"),
    "repro.engine.options": ("EngineOptions", "resolve_engine_options"),
})

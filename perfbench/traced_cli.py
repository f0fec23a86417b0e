"""Run one ``repro`` CLI request with a span around each layer's entry point.

Usage::

    python3 perfbench/traced_cli.py SPANS.json -- <repro arguments>

Times ``import repro.cli``, wraps the public entry point of every layer
the benchmark reports (nothing inside ``src/`` changes), then calls
``repro.cli.main`` exactly as ``python -m repro`` would.  The spans stay
in memory and are written to ``SPANS.json`` when the request ends, even
if it fails; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time

from spans import SpanRecorder


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's entry point in place, named after its module."""
    import repro.api.session as session
    import repro.cli as cli
    import repro.engine.engine as engine
    import repro.nn.functional as functional
    from repro.core.accelerator import Accelerator
    from repro.engine.cache import ResultCache
    from repro.explore.runner import StudyRunner
    from repro.simulation.cycle_sim import LayerSimulator
    from repro.simulation.runner import ExperimentRunner
    from repro.training.tracing import TraceCollector

    targets = [
        (cli, "main", "cli"),
        (session.Session, "submit", "api.submit"),
        # As the session calls it: the name bound in repro.api.session.
        (session, "trace_workload", "training.trace"),
        (functional, "conv2d_forward", "nn.conv_forward"),
        (functional, "conv2d_backward", "nn.conv_backward"),
        (TraceCollector, "collect", "training.collect"),
        (LayerSimulator, "streams_for_trace", "simulation.streams"),
        (Accelerator, "run_operations_batched", "core.kernel"),
        (LayerSimulator, "finalize_layer", "simulation.finalize"),
        (ExperimentRunner, "energy_report", "energy.report"),
        (engine.SimulationEngine, "simulate_layers", "engine"),
        # As the engine calls it: the name bound in repro.engine.engine.
        (engine, "trace_fingerprint", "engine.fingerprint"),
        (ResultCache, "store", "engine.cache_store"),
        (StudyRunner, "run", "explore.run"),
    ]
    for owner, attribute, name in targets:
        setattr(owner, attribute, recorder.wrap(name, getattr(owner, attribute)))

    timed_load = recorder.wrap("engine.cache_load", ResultCache.load)

    def load(self, key):
        result = timed_load(self, key)
        if result is not None:
            recorder.counts["engine.cache_load.hits"] += 1
        return result

    ResultCache.load = load


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, repro_argv = argv[0], argv[2:]
    recorder = SpanRecorder()
    try:
        start = time.perf_counter()
        import repro.cli
        recorder.add("cli.import", start, time.perf_counter())
        install(recorder)
        return repro.cli.main(repro_argv)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(recorder.to_dict(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

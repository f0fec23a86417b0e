"""Hotspot profiler for the simulation engine: where do the cycles go?

This is the profile-first companion to the engine optimisation work: it
times the engine over the ResNet-50 trace (``whole_trace_seconds``, the
fastest of several passes, none profiled), runs one more pass under
``cProfile`` and prints the top functions by cumulative and self time,
and times each layer individually so a regression is attributable to a
specific layer shape rather than a single opaque scalar.

It also times the training stage that precedes the engine in a cold
request: each Fig. 13 model trained and traced at the CLI's default
length (2 epochs x 2 batches of 8, seed 0), best of 3, plus their total.

The same numbers are written to ``BENCH_profile.json`` at the repository
root.  ``docs/performance.md`` explains how to read the report.

Run directly::

    PYTHONPATH=src python benchmarks/profile_engine.py
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import time
from pathlib import Path

from benchmarks.common import get_trace, print_header

from repro.analysis.reporting import format_table
from repro.engine import SimulationEngine
from repro.models.registry import PAPER_MODELS, trace_workload
from repro.simulation.cycle_sim import traced_layers

WORKLOAD = "resnet50"
MAX_GROUPS = 512
#: Functions shown per profile ordering.
TOP_FUNCTIONS = 15
#: ``whole_trace_seconds`` is the fastest of this many unprofiled passes.
WHOLE_TRACE_REPEATS = 5
#: The training length of a default ``repro simulate`` request.
TRAINING = {"epochs": 2, "batches_per_epoch": 2, "batch_size": 8, "seed": 0}
#: Each model's training time is the fastest of this many runs.
TRAINING_REPEATS = 3
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_profile.json"


def _top_entries(stats: pstats.Stats, sort_key: str, count: int):
    """The top ``count`` profile rows as JSON-friendly dicts."""
    stats.sort_stats(sort_key)
    entries = []
    for func in stats.fcn_list[:count]:  # (file, line, name)
        cc, nc, tottime, cumtime, _ = stats.stats[func]
        filename, line, name = func
        entries.append({
            "function": f"{Path(filename).name}:{line}:{name}",
            "calls": nc,
            "self_seconds": round(tottime, 4),
            "cumulative_seconds": round(cumtime, 4),
        })
    return entries


def _whole_trace_seconds(layers) -> float:
    """The fastest of ``WHOLE_TRACE_REPEATS`` engine passes over ``layers``,
    each on a fresh engine, so that no pass is served by the memo."""
    runs = []
    for _ in range(WHOLE_TRACE_REPEATS):
        engine = SimulationEngine(max_groups=MAX_GROUPS)
        start = time.perf_counter()
        engine.simulate_layers(layers)
        runs.append(time.perf_counter() - start)
    return min(runs)


def _training_block():
    """Best-of-``TRAINING_REPEATS`` seconds to train and trace each Fig. 13
    model at the default request's training length."""
    models = {}
    for name in PAPER_MODELS:
        runs = []
        for _ in range(TRAINING_REPEATS):
            start = time.perf_counter()
            trace_workload(name, **TRAINING)
            runs.append(time.perf_counter() - start)
        models[name] = round(min(runs), 4)
    return {
        **TRAINING,
        "repeats": TRAINING_REPEATS,
        "models": models,
        "total_seconds": round(sum(models.values()), 4),
    }


def main() -> int:
    print_header(
        "Engine hotspot profile",
        "cProfile over the engine plus a per-layer timing "
        "breakdown (no paper figure; drives engine optimisation)",
    )
    trace = get_trace(WORKLOAD, epochs=1)
    layers = list(trace.final_epoch().layers)
    print(f"Workload: {WORKLOAD}, {len(layers)} traced layers, "
          f"max_groups={MAX_GROUPS}")

    total_seconds = _whole_trace_seconds(layers)
    # The profiled pass feeds the hotspot tables only: cProfile's own
    # overhead is too large and too variable for a watched timing.
    engine = SimulationEngine(max_groups=MAX_GROUPS)
    profiler = cProfile.Profile()
    profiler.enable()
    engine.simulate_layers(layers)
    profiler.disable()

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    by_cumulative = _top_entries(stats, "cumulative", TOP_FUNCTIONS)
    by_self = _top_entries(stats, "tottime", TOP_FUNCTIONS)

    print(format_table(
        f"top {TOP_FUNCTIONS} functions by self time (whole trace: "
        f"{total_seconds:.3f}s, best of {WHOLE_TRACE_REPEATS} unprofiled passes)",
        ["function", "calls", "self s", "cum s"],
        [[e["function"], e["calls"], e["self_seconds"],
          e["cumulative_seconds"]] for e in by_self],
    ))

    # Per-layer attribution: time each layer alone through the same
    # kernel (slightly slower than the fused whole-trace pass because
    # cross-layer batching cannot help a single layer).
    simulator = engine.simulator_for()
    per_layer = []
    for layer in traced_layers(layers):
        start = time.perf_counter()
        result = simulator.simulate_layer(layer)
        seconds = time.perf_counter() - start
        per_layer.append({
            "layer": layer.layer_name,
            "seconds": round(seconds, 4),
            "tensordash_cycles": result.tensordash_cycles,
        })
    per_layer.sort(key=lambda row: -row["seconds"])
    print(format_table(
        "per-layer wall clock (layer at a time, descending)",
        ["layer", "seconds", "tensordash cycles"],
        [[row["layer"], row["seconds"], row["tensordash_cycles"]]
         for row in per_layer],
    ))

    training = _training_block()
    print(format_table(
        f"training and tracing per Fig. 13 model (best of "
        f"{TRAINING_REPEATS}; total {training['total_seconds']}s)",
        ["model", "seconds"],
        [[name, seconds] for name, seconds in training["models"].items()],
    ))

    payload = {
        "benchmark": "profile_engine",
        "workload": WORKLOAD,
        "max_groups": MAX_GROUPS,
        "traced_layers": len(layers),
        "whole_trace_seconds": round(total_seconds, 4),
        "whole_trace_repeats": WHOLE_TRACE_REPEATS,
        "hotspots_by_self_time": by_self,
        "hotspots_by_cumulative_time": by_cumulative,
        "per_layer_seconds": per_layer,
        "training": training,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nWrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

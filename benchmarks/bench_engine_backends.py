"""Microbenchmark: the scheduling kernel against the readable oracle.

Trains the scaled ResNet-50 workload briefly, then simulates its final
epoch trace twice with identical sampling parameters: once through the
engine (the bit-plane kernel, recorded as ``kernel``) and once with
every operation scheduled by ``Accelerator.run_operation_reference``
(recorded as ``oracle``).  It checks that the two are
bit-identical and measures the cold/warm behaviour of the on-disk result
cache.

Results are printed as a table and emitted to ``BENCH_engine.json`` at
the repository root, including a per-layer timing breakdown so future
regressions are attributable, not just visible.  The emitted
``perf_gate`` block records the speedup floors CI enforces.

Run directly::

    PYTHONPATH=src python benchmarks/bench_engine_backends.py

CI perf-gate mode (reduced trace, ratio-based so it is robust to runner
speed; the floor comes from the committed BENCH_engine.json)::

    PYTHONPATH=src python benchmarks/bench_engine_backends.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from benchmarks.common import get_trace, print_header

from repro.analysis.reporting import format_table
from repro.engine import SimulationEngine
from repro.simulation.cycle_sim import LayerSimulator, traced_layers

#: ResNet-scale sampling: large enough that scheduling dominates wall
#: clock and the batched numpy kernels have a real batch to amortise over.
MAX_GROUPS = 512
WORKLOAD = "resnet50"
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
#: The kernel must beat the oracle by at least this factor on the full
#: trace; the run fails otherwise so a performance
#: regression turns CI red instead of hiding in the artifact.  The
#: bit-plane kernel measured 78-104x on a 2-vCPU host and the
#: word-per-window kernel it replaced 24-29x, so 40x fails a return to
#: that kernel.
MIN_KERNEL_SPEEDUP = 40.0

#: Reduced configuration for the CI perf-gate step (--check): a smaller
#: workload and batch so the gate costs seconds, compared ratio-against-
#: ratio with the floor recorded in the committed BENCH_engine.json.
CHECK_WORKLOAD = "squeezenet"
CHECK_MAX_GROUPS = 64
#: Floor for the reduced gate (recorded into BENCH_engine.json; also the
#: fallback when the artifact predates it).  Measured 30-32x on a 2-vCPU
#: host, so 15x leaves a 2x margin for slower/noisier runners.
CHECK_FLOOR_FALLBACK = 15.0


def _identical(lhs, rhs) -> bool:
    if [r.layer_name for r in lhs] != [r.layer_name for r in rhs]:
        return False
    for a, b in zip(lhs, rhs):
        if a.operations != b.operations or a.traffic != b.traffic:
            return False
    return True


def _oracle_pass(layers, max_groups):
    """Simulate ``layers`` with every operation scheduled by the oracle.

    Same stream extraction and finalisation as the engine; only the
    scheduling step differs (one ``HardwareScheduler.walk`` per group).
    """
    simulator = LayerSimulator(max_groups=max_groups)
    accelerator = simulator.accelerator
    accelerator.run_operations_batched = lambda units: [
        accelerator.run_operation_reference(name, groups) for name, groups in units
    ]
    return simulator.simulate_layers(layers)


def _timed_passes(layers, max_groups, repeats=1):
    """Best-of-``repeats`` seconds and results, oracle and kernel."""
    passes = {
        "oracle": lambda: _oracle_pass(layers, max_groups),
        "kernel": lambda: SimulationEngine(
            max_groups=max_groups
        ).simulate_layers(layers),
    }
    timings, results = {}, {}
    for name, run in passes.items():
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            results[name] = run()
            best = min(best, time.perf_counter() - start)
        timings[name] = best
    if not _identical(results["kernel"], results["oracle"]):
        raise AssertionError("the kernel diverged from the oracle")
    return timings, results


def run_check() -> int:
    """CI perf gate: reduced trace, ratio compared against the recorded floor."""
    print_header(
        "Engine perf gate (reduced trace)",
        "Ratio-based regression gate: kernel vs oracle on a small "
        "workload, floor from the committed BENCH_engine.json",
    )
    floor = CHECK_FLOOR_FALLBACK
    try:
        recorded = json.loads(OUTPUT.read_text())
        floor = float(recorded["perf_gate"]["reduced_min_kernel_speedup"])
    except (OSError, KeyError, ValueError):
        print(f"no recorded floor found; using fallback {floor}x")
    trace = get_trace(CHECK_WORKLOAD, epochs=1)
    layers = trace.final_epoch().layers

    # Best of three: the kernel pass is fast enough that a single sample
    # is dominated by allocator/page-cache noise.
    timings, _ = _timed_passes(layers, CHECK_MAX_GROUPS, repeats=3)
    ratio = timings["oracle"] / timings["kernel"]
    print(f"{CHECK_WORKLOAD} (max_groups={CHECK_MAX_GROUPS}): "
          f"oracle {timings['oracle']:.3f}s, "
          f"kernel {timings['kernel']:.3f}s -> {ratio:.2f}x "
          f"(floor: {floor}x)")
    if ratio < floor:
        raise AssertionError(
            f"the kernel is only {ratio:.2f}x the oracle "
            f"on the reduced trace (required: >= {floor}x)"
        )
    print("perf gate passed")
    return 0


def main() -> int:
    print_header(
        "Scheduling kernel vs oracle",
        "Engine microbenchmark (no paper figure): oracle vs kernel, "
        "plus result-cache effectiveness",
    )
    trace = get_trace(WORKLOAD, epochs=1)
    layers = trace.final_epoch().layers
    cpu_count = os.cpu_count() or 1
    print(f"Workload: {WORKLOAD}, {len(layers)} traced layers, "
          f"max_groups={MAX_GROUPS}, cpus={cpu_count}")

    timings, results = _timed_passes(layers, MAX_GROUPS)

    # Per-layer attribution (kernel, one layer at a time).
    simulator = SimulationEngine(max_groups=MAX_GROUPS).simulator_for()
    per_layer = []
    for layer in traced_layers(layers):
        start = time.perf_counter()
        simulator.simulate_layer(layer)
        per_layer.append({
            "layer": layer.layer_name,
            "seconds": round(time.perf_counter() - start, 4),
        })

    # Cache behaviour: cold run populates, warm run must re-simulate nothing.
    with tempfile.TemporaryDirectory() as cache_dir:
        cold_engine = SimulationEngine(cache_dir=cache_dir, max_groups=MAX_GROUPS)
        start = time.perf_counter()
        cold_engine.simulate_layers(layers)
        cold_seconds = time.perf_counter() - start

        warm_engine = SimulationEngine(cache_dir=cache_dir, max_groups=MAX_GROUPS)
        start = time.perf_counter()
        warm_results = warm_engine.simulate_layers(layers)
        warm_seconds = time.perf_counter() - start
        if warm_engine.stats.layers_simulated != 0:
            raise AssertionError("warm cache run re-simulated layers")
        if not _identical(warm_results, results["kernel"]):
            raise AssertionError("cached results diverged from fresh results")

    oracle_seconds = timings["oracle"]
    rows = [
        [name, seconds, oracle_seconds / seconds if seconds else float("inf")]
        for name, seconds in timings.items()
    ]
    rows.append(["kernel+warm-cache", warm_seconds,
                 oracle_seconds / warm_seconds if warm_seconds else float("inf")])
    print(format_table(
        f"{WORKLOAD}: oracle vs kernel wall-clock",
        ["path", "seconds", "speedup vs oracle"],
        rows,
    ))

    payload = {
        "benchmark": "engine_backends",
        "workload": WORKLOAD,
        "traced_layers": len(layers),
        "max_groups": MAX_GROUPS,
        "cpu_count": cpu_count,
        "backends": {
            name: {
                "seconds": round(seconds, 4),
                "speedup_vs_oracle": round(oracle_seconds / seconds, 3)
                if seconds else None,
            }
            for name, seconds in timings.items()
        },
        "per_layer_seconds": sorted(per_layer, key=lambda r: -r["seconds"]),
        "cache": {
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "warm_cache_hits": warm_engine.stats.cache_hits,
            "warm_cache_misses": warm_engine.stats.cache_misses,
            "warm_layers_resimulated": warm_engine.stats.layers_simulated,
        },
        "perf_gate": {
            "min_kernel_speedup": MIN_KERNEL_SPEEDUP,
            "reduced_workload": CHECK_WORKLOAD,
            "reduced_max_groups": CHECK_MAX_GROUPS,
            "reduced_min_kernel_speedup": CHECK_FLOOR_FALLBACK,
        },
        "bit_identical": True,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nWrote {OUTPUT}")

    kernel_speedup = payload["backends"]["kernel"]["speedup_vs_oracle"]
    print(f"Kernel speedup over the oracle: {kernel_speedup:.2f}x")
    if kernel_speedup < MIN_KERNEL_SPEEDUP:
        raise AssertionError(
            f"the kernel is only {kernel_speedup:.2f}x the oracle "
            f"(required: >= {MIN_KERNEL_SPEEDUP}x)"
        )
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="CI perf-gate mode: reduced trace, ratio vs recorded floor",
    )
    args = parser.parse_args()
    raise SystemExit(run_check() if args.check else main())

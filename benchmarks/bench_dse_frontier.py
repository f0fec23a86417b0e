"""Microbenchmark: design-space study wall-clock — cold, resumed, warm.

Runs the repository's example study spec (``examples/specs/dse_small.json``:
24 points over tile rows x staging depth x datatype x sparsity scenario)
through :class:`repro.explore.StudyRunner` three ways:

* **cold** — empty study directory, every layer not shared by a datatype
  twin is simulated;
* **resume** — manifest intact, every point restored without simulation;
* **warm cache** — manifest deleted (a simulated kill that lost all
  checkpoints), every layer re-served from the content-addressed cache.

Each pass runs :data:`REPEATS` times, each time on a fresh study
directory, and the table and ``BENCH_dse.json`` (at the repository root)
record the median seconds: one run's timing varies by 2x on one host.
The run fails if a resumed or warm-cache pass simulates any layer, if a
cold pass does not train each workload exactly once, if a warm-cache
pass trains at all instead of loading every workload's trace from the
study cache, or if any pass disagrees with the cold frontier.

Run directly::

    PYTHONPATH=src:. python benchmarks/bench_dse_frontier.py
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from pathlib import Path

from benchmarks.common import engine_kwargs, print_header

from repro.analysis.reporting import format_table
from repro.explore import StudyRunner, StudySpec

SPEC_PATH = Path(__file__).resolve().parent.parent / "examples" / "specs" / "dse_small.json"
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_dse.json"
#: Fresh study directories per pass; the recorded seconds are medians.
REPEATS = 5


def _run(spec: StudySpec, study_dir: Path, resume: bool):
    runner = StudyRunner(spec, study_dir=study_dir, **engine_kwargs())
    start = time.perf_counter()
    result = runner.run(resume=resume)
    return result, time.perf_counter() - start


def _passes(spec: StudySpec):
    """Cold, resumed and warm-cache passes on a fresh study dir, checked.

    Returns the cold and warm-cache results and each pass's seconds.
    """
    with tempfile.TemporaryDirectory() as tmp:
        study_dir = Path(tmp) / "study"

        workloads = len(spec.workloads)
        cold, cold_seconds = _run(spec, study_dir, resume=False)
        if (cold.stats.traces_trained, cold.stats.traces_loaded) != (workloads, 0):
            raise AssertionError("cold pass did not train each workload once")
        resumed, resume_seconds = _run(spec, study_dir, resume=True)
        if resumed.stats.layers_simulated != 0:
            raise AssertionError("manifest resume re-simulated layers")

        (study_dir / "manifest.json").unlink()
        warm, warm_seconds = _run(spec, study_dir, resume=True)
        if warm.stats.layers_simulated != 0:
            raise AssertionError("warm-cache restart re-simulated layers")
        if warm.stats.cache_misses != 0:
            raise AssertionError("warm-cache restart missed the cache")
        if (warm.stats.traces_trained, warm.stats.traces_loaded) != (0, workloads):
            raise AssertionError("warm-cache restart retrained a stored trace")

    frontier = [p.point_id for p in cold.frontier()]
    for other, name in ((resumed, "resumed"), (warm, "warm-cache")):
        if [p.point_id for p in other.frontier()] != frontier:
            raise AssertionError(f"{name} frontier diverged from the cold run")
    seconds = {
        "cold_seconds": cold_seconds,
        "resume_seconds": resume_seconds,
        "warm_cache_seconds": warm_seconds,
    }
    return cold, warm, seconds


def main() -> int:
    print_header(
        "Design-space exploration: study wall-clock and frontier",
        "Explore microbenchmark (no paper figure): cold vs resumed vs "
        "warm-cache study execution over the example 24-point spec",
    )
    spec = StudySpec.from_json(SPEC_PATH)
    points = spec.expand()
    cpu_count = os.cpu_count() or 1
    print(f"Spec: {spec.name}, {len(points)} points "
          f"({len(spec.workloads)} workload(s) x {len(spec.scenarios)} "
          f"scenario(s) x knobs {dict((k, len(v)) for k, v in spec.knobs.items())}), "
          f"cpus={cpu_count}")

    runs = [_passes(spec) for _ in range(REPEATS)]
    cold, warm, _ = runs[-1]
    frontier = cold.frontier()
    seconds = {
        key: statistics.median(times[key] for _, _, times in runs)
        for key in ("cold_seconds", "resume_seconds", "warm_cache_seconds")
    }
    cold_seconds = seconds["cold_seconds"]
    rows = [
        [label, seconds[key],
         cold_seconds / seconds[key] if seconds[key] else float("inf")]
        for label, key in (
            ("cold (empty study dir)", "cold_seconds"),
            ("resume (manifest intact)", "resume_seconds"),
            ("warm cache (manifest lost)", "warm_cache_seconds"),
        )
    ]
    print(format_table(
        f"{spec.name}: median study wall-clock of {REPEATS} runs "
        f"({len(points)} points)",
        ["pass", "seconds", "speedup vs cold"],
        rows,
    ))
    print(f"Pareto frontier: {len(frontier)} of {len(points)} points")
    for point in frontier:
        print(f"  {point.label}: speedup {point.metrics['speedup']:.3f}x, "
              f"energy eff. {point.metrics['energy_efficiency']:.3f}x, "
              f"area overhead {point.metrics['area_overhead']:.3f}x")

    payload = {
        "benchmark": "dse_frontier",
        "spec": spec.to_dict(),
        "points": len(points),
        "frontier_size": len(frontier),
        "frontier": [point.point_id for point in frontier],
        "wall_clock": {key: round(value, 4) for key, value in seconds.items()},
        "wall_clock_repeats": REPEATS,
        "cpu_count": cpu_count,
        "cold_engine": cold.stats.as_dict(),
        "warm_engine": warm.stats.as_dict(),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nWrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

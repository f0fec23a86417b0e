"""Microbenchmark: design-space study wall-clock — cold, warm, parallel.

Runs the repository's example study spec (``examples/specs/dse_small.json``:
24 points over tile rows x staging depth x datatype x sparsity scenario)
through :class:`repro.explore.StudyRunner` four ways:

* **cold** — empty study directory, every layer simulated, serial;
* **resume** — manifest intact, every point restored without simulation;
* **warm cache** — manifest deleted (a simulated kill that lost all
  checkpoints), every layer re-served from the content-addressed cache;
* **parallel** — a second cold run with ``study_jobs`` worker processes
  (:class:`repro.explore.StudyExecutor`); its ``parallel_vs_serial``
  ratio is the study-level scaling headline.

The run fails if the resumed or warm-cache passes simulate any layer, if
any pass disagrees with the cold frontier, or if the parallel pass's
PointResults are not bit-identical to the serial ones.  Results are
printed as a table and emitted to ``BENCH_dse.json`` at the repository
root, extending the perf trajectory started by ``BENCH_engine.json``.
The parallel-beats-serial floor is only *enforced* on runners with at
least :data:`STUDY_GATE_MIN_CPUS` CPUs; the measured ratio is recorded
either way.

Run directly::

    PYTHONPATH=src:. python benchmarks/bench_dse_frontier.py

CI perf-gate mode (reduced sampled spec, ratio-based; the floor comes
from the committed BENCH_dse.json)::

    PYTHONPATH=src:. python benchmarks/bench_dse_frontier.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from benchmarks.common import print_header, study_kwargs

from repro.analysis.reporting import format_table
from repro.explore import StudyRunner, StudySpec

SPEC_PATH = Path(__file__).resolve().parent.parent / "examples" / "specs" / "dse_small.json"
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_dse.json"
#: Worker count for the parallel pass (the acceptance criterion is
#: phrased at 4 study jobs on a >= 24-point study).
STUDY_JOBS = 4
#: Parallel must beat serial by this factor — only enforceable on
#: machines with enough cores to host the study workers.
MIN_PARALLEL_VS_SERIAL = 1.2
STUDY_GATE_MIN_CPUS = 4
#: Points sampled from the spec for the reduced --check gate.
CHECK_SAMPLE = 8
#: Fallback floor for --check when BENCH_dse.json predates the gate.
CHECK_FLOOR_FALLBACK = 1.1


def _run(spec: StudySpec, study_dir: Path, resume: bool, study_jobs=None):
    kwargs = study_kwargs()
    if study_jobs is not None:
        kwargs["study_jobs"] = study_jobs
    runner = StudyRunner(spec, study_dir=study_dir, **kwargs)
    start = time.perf_counter()
    result = runner.run(resume=resume)
    return result, time.perf_counter() - start


def _assert_identical(serial, parallel) -> None:
    """Parallel study output must be bit-identical to the serial run."""
    lhs = [point.to_dict() for point in serial.points]
    rhs = [point.to_dict() for point in parallel.points]
    if lhs != rhs:
        raise AssertionError("parallel PointResults diverged from serial")
    if [p.point_id for p in serial.frontier()] != [
        p.point_id for p in parallel.frontier()
    ]:
        raise AssertionError("parallel frontier diverged from serial")


def run_check() -> int:
    """CI perf gate: sampled spec, parallel-vs-serial ratio vs the floor.

    Bit-identity between the serial and parallel runs is always
    asserted; the wall-clock floor only on runners with enough CPUs.
    """
    print_header(
        "Study perf gate (sampled spec)",
        "Ratio-based regression gate: study_jobs parallel vs serial on a "
        "sampled spec, floor from the committed BENCH_dse.json",
    )
    floor = CHECK_FLOOR_FALLBACK
    try:
        recorded = json.loads(OUTPUT.read_text())
        floor = float(recorded["perf_gate"]["min_parallel_vs_serial"])
    except (OSError, KeyError, ValueError):
        print(f"no recorded floor found; using fallback {floor}x")
    spec = StudySpec.from_json(SPEC_PATH)
    spec.mode = "random"
    spec.sample = CHECK_SAMPLE
    spec.validate()
    cpu_count = os.cpu_count() or 1
    enforced = cpu_count >= STUDY_GATE_MIN_CPUS

    with tempfile.TemporaryDirectory() as tmp:
        serial, serial_seconds = _run(
            spec, Path(tmp) / "serial", resume=False, study_jobs=1
        )
        parallel, parallel_seconds = _run(
            spec, Path(tmp) / "parallel", resume=False, study_jobs=STUDY_JOBS
        )
    _assert_identical(serial, parallel)
    ratio = serial_seconds / parallel_seconds if parallel_seconds else float("inf")
    print(f"{spec.name} (sample={CHECK_SAMPLE}): serial {serial_seconds:.3f}s, "
          f"parallel({STUDY_JOBS}) {parallel_seconds:.3f}s -> {ratio:.2f}x "
          f"(floor: {floor}x, "
          f"{'enforced' if enforced else 'not enforced'}: {cpu_count} cpus)")
    if enforced and ratio < floor:
        raise AssertionError(
            f"parallel study execution is only {ratio:.2f}x serial on the "
            f"sampled spec (required: >= {floor}x)"
        )
    print("perf gate passed (results bit-identical)")
    return 0


def main() -> int:
    print_header(
        "Design-space exploration: study wall-clock and frontier",
        "Explore microbenchmark (no paper figure): cold vs resumed vs "
        "warm-cache vs parallel study execution over the example "
        "24-point spec",
    )
    spec = StudySpec.from_json(SPEC_PATH)
    points = spec.expand()
    cpu_count = os.cpu_count() or 1
    print(f"Spec: {spec.name}, {len(points)} points "
          f"({len(spec.workloads)} workload(s) x {len(spec.scenarios)} "
          f"scenario(s) x knobs {dict((k, len(v)) for k, v in spec.knobs.items())}), "
          f"cpus={cpu_count}")

    with tempfile.TemporaryDirectory() as tmp:
        study_dir = Path(tmp) / "study"

        cold, cold_seconds = _run(spec, study_dir, resume=False, study_jobs=1)
        resumed, resume_seconds = _run(spec, study_dir, resume=True, study_jobs=1)
        if resumed.stats.layers_simulated != 0:
            raise AssertionError("manifest resume re-simulated layers")

        (study_dir / "manifest.json").unlink()
        warm, warm_seconds = _run(spec, study_dir, resume=True, study_jobs=1)
        if warm.stats.layers_simulated != 0:
            raise AssertionError("warm-cache restart re-simulated layers")
        if warm.stats.cache_misses != 0:
            raise AssertionError("warm-cache restart missed the cache")

        # Parallel pass: a fresh study directory (no shared state with
        # the passes above) fanned across STUDY_JOBS worker processes.
        parallel, parallel_seconds = _run(
            spec, Path(tmp) / "parallel", resume=False, study_jobs=STUDY_JOBS
        )
    _assert_identical(cold, parallel)

    frontier = cold.frontier()
    for other, name in ((resumed, "resumed"), (warm, "warm-cache")):
        if [p.point_id for p in other.frontier()] != [p.point_id for p in frontier]:
            raise AssertionError(f"{name} frontier diverged from the cold run")

    parallel_ratio = (
        cold_seconds / parallel_seconds if parallel_seconds else float("inf")
    )
    gate_enforced = cpu_count >= STUDY_GATE_MIN_CPUS
    rows = [
        ["cold serial (simulate everything)", cold_seconds, 1.0],
        ["resume (manifest intact)", resume_seconds,
         cold_seconds / resume_seconds if resume_seconds else float("inf")],
        ["warm cache (manifest lost)", warm_seconds,
         cold_seconds / warm_seconds if warm_seconds else float("inf")],
        [f"parallel cold (study_jobs={STUDY_JOBS})", parallel_seconds,
         parallel_ratio],
    ]
    print(format_table(
        f"{spec.name}: study wall-clock ({len(points)} points)",
        ["pass", "seconds", "speedup vs cold"],
        rows,
    ))
    print(f"Pareto frontier: {len(frontier)} of {len(points)} points")
    for point in frontier:
        print(f"  {point.label}: speedup {point.metrics['speedup']:.3f}x, "
              f"energy eff. {point.metrics['energy_efficiency']:.3f}x, "
              f"area overhead {point.metrics['area_overhead']:.3f}x")
    print(f"parallel vs serial: {parallel_ratio:.2f}x with "
          f"study_jobs={STUDY_JOBS} "
          f"({'enforced' if gate_enforced else 'not enforced'}: "
          f"{cpu_count} cpus, gate needs >= {STUDY_GATE_MIN_CPUS})")
    if gate_enforced and parallel_ratio < MIN_PARALLEL_VS_SERIAL:
        raise AssertionError(
            f"parallel study execution is only {parallel_ratio:.2f}x serial "
            f"(required: >= {MIN_PARALLEL_VS_SERIAL}x at {cpu_count} cpus)"
        )

    payload = {
        "benchmark": "dse_frontier",
        "spec": spec.to_dict(),
        "points": len(points),
        "frontier_size": len(frontier),
        "frontier": [point.point_id for point in frontier],
        "wall_clock": {
            "cold_seconds": round(cold_seconds, 4),
            "resume_seconds": round(resume_seconds, 4),
            "warm_cache_seconds": round(warm_seconds, 4),
            "parallel_seconds": round(parallel_seconds, 4),
        },
        "parallel_vs_serial": {
            "study_jobs": STUDY_JOBS,
            "ratio": round(parallel_ratio, 4),
            "cpu_count": cpu_count,
            "gate_enforced": gate_enforced,
            "bit_identical": True,
        },
        "perf_gate": {
            "min_parallel_vs_serial": MIN_PARALLEL_VS_SERIAL,
            "study_gate_min_cpus": STUDY_GATE_MIN_CPUS,
        },
        "cold_engine": cold.stats.as_dict(),
        "warm_engine": warm.stats.as_dict(),
        "parallel_engine": parallel.stats.as_dict(),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nWrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="CI perf gate: sampled spec, parallel-vs-serial ratio "
             "compared against the floor recorded in BENCH_dse.json",
    )
    args = parser.parse_args()
    raise SystemExit(run_check() if args.check else main())

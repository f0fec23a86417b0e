"""Multi-worker study execution: fan point groups across processes.

:class:`StudyExecutor` partitions a study's remaining point groups into
chunks and runs each chunk on a pool of worker processes — the
project's only multi-process layer.  Every worker owns one
:class:`~repro.engine.SimulationEngine` pointed at the study's disk
cache, so duplicate (compute key, trace) work collapses across workers
exactly as it does across serve processes sharing a ``--cache-dir``.  Only
what a worker finds stored collapses: datatype twins (points that differ
only in knobs the kernel does not read) running on two workers at once
are both scheduled, so a parallel study may count more
``layers_simulated`` than the serial run, whose one memo shares them.
Results are identical either way.

The payload a worker needs — the spec, the parent's pre-computed
scenario traces, and the chunked point lists — ships through fork's
copy-on-write page sharing where the platform allows; on spawn-only
platforms it is pickled to each worker once at pool start-up.  Workers
never train: the parent memoizes every scenario trace before the pool
starts, so a worker that reaches :meth:`StudyRunner._scenario_trace`
always hits the prefilled memo.

Results merge back in the parent as each chunk completes (unordered —
the runner re-sorts into point order at the end), together with the
worker's exact :class:`~repro.engine.engine.EngineStats` delta for that
chunk, so aggregated study stats count exactly the work the workers did.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence

from repro.engine.engine import EngineStats

# Pre-fork study payload; module global so forked workers see it without
# pickling (spawn workers receive it via the initializer arguments).
_STUDY_PAYLOAD: Optional[dict] = None
_STUDY_RUNNER = None


def _init_study_worker(payload=None) -> None:
    """Build this worker's private engine + runner from the payload."""
    global _STUDY_PAYLOAD, _STUDY_RUNNER
    from repro.engine.engine import SimulationEngine
    from repro.explore.runner import StudyRunner
    from repro.telemetry import tracing

    if payload is not None:
        _STUDY_PAYLOAD = payload
    if _STUDY_PAYLOAD is None:
        raise RuntimeError("study worker started without a payload")
    # A forked worker inherits the parent's tracer (and its open event
    # log); disable it so span lines never interleave across processes —
    # the parent re-emits per-point spans as results merge.
    tracing.configure(None)
    spec = _STUDY_PAYLOAD["spec"]
    engine = SimulationEngine(
        cache_dir=_STUDY_PAYLOAD["cache_dir"],
        max_groups=spec.max_groups,
        memory_cache=True,
    )
    runner = StudyRunner(
        spec, cache_dir=_STUDY_PAYLOAD["cache_dir"], engine=engine
    )
    # Prefill the scenario-trace memo: workers must never train.
    runner._scenario_traces.update(_STUDY_PAYLOAD["traces"])
    _STUDY_RUNNER = runner


def _run_study_unit(index: int):
    """Execute one chunk of same-config points; return records + stats."""
    runner = _STUDY_RUNNER
    group = _STUDY_PAYLOAD["units"][index]
    before = runner.engine.stats.snapshot()
    records = runner._execute_group(group)
    delta = runner.engine.stats.since(before)
    identity = multiprocessing.current_process()._identity or (0,)
    return (
        index,
        int(identity[0]),
        [record.to_dict() for record in records],
        delta.as_dict(),
    )


def plan_units(
    groups: Sequence[Sequence], jobs: int
) -> List[List]:
    """Chunk config groups so parallelism scales with points, not configs.

    Each chunk stays within one accelerator configuration (a chunk is
    still one batched engine pass), but a study with fewer configs than
    workers is split finer — targeting ~4 chunks per worker so the
    unordered merge load-balances.
    """
    total = sum(len(group) for group in groups)
    if total == 0:
        return []
    chunk = max(1, math.ceil(total / (jobs * 4)))
    units: List[List] = []
    for group in groups:
        for start in range(0, len(group), chunk):
            units.append(list(group[start : start + chunk]))
    return units


class StudyExecutor:
    """Runs a :class:`StudyRunner`'s point groups on a worker pool.

    Parameters
    ----------
    runner:
        The parent study runner.  Its spec, engine options and memoized
        scenario traces form the worker payload;
        the runner itself never leaves the parent process.
    jobs:
        Worker process count (``>= 1``).  ``jobs=1`` is rejected by the
        caller taking the serial path instead — the executor only exists
        to build pools.
    """

    def __init__(self, runner, jobs: int):
        if jobs < 1:
            raise ValueError(f"study jobs must be >= 1, got {jobs}")
        self.runner = runner
        self.jobs = jobs

    def run(
        self,
        groups: Sequence[Sequence],
        merge: Callable[[List, Optional[EngineStats], int], None],
    ) -> int:
        """Execute ``groups`` on the pool; returns the worker count used.

        ``merge(records, stats_delta, worker)`` is invoked in the parent
        as each chunk completes (unordered).  Returns ``0`` when no pool
        ran — not enough work to split, or process creation failed in a
        sandboxed environment — signalling the caller to take the exact
        serial path for whatever remains.
        """
        global _STUDY_PAYLOAD
        from repro.explore.runner import PointResult

        units = plan_units(groups, self.jobs)
        if len(units) <= 1:
            return 0
        jobs = min(self.jobs, len(units))
        runner = self.runner
        payload = {
            "spec": runner.spec,
            "cache_dir": runner.cache_dir,
            "traces": dict(runner._scenario_traces),
            "units": units,
        }
        try:
            context = multiprocessing.get_context("fork")
            initargs = ()
        except ValueError:
            context = multiprocessing.get_context("spawn")
            initargs = (payload,)
        _STUDY_PAYLOAD = payload
        merged = 0
        try:
            with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=context,
                initializer=_init_study_worker,
                initargs=initargs,
            ) as pool:
                pending = {
                    pool.submit(_run_study_unit, index)
                    for index in range(len(units))
                }
                try:
                    while pending:
                        finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                        for future in finished:
                            _, worker, records, stats = future.result()
                            merge(
                                [PointResult.from_dict(r) for r in records],
                                EngineStats.from_dict(stats),
                                worker,
                            )
                            merged += 1
                except BaseException:
                    # merge() aborted the study (e.g. cooperative job
                    # cancellation at a point boundary).  Drop every
                    # not-yet-started chunk so the pool's context exit
                    # waits only for chunks already in flight — merged
                    # records are checkpointed, nothing else starts.
                    for future in pending:
                        future.cancel()
                    raise
        except (OSError, PermissionError, BrokenProcessPool):
            # No pool in this environment (or it died before finishing):
            # whatever merged stands — records are already checkpointed —
            # and the caller's serial path finishes the rest.
            return 0 if merged == 0 else jobs
        finally:
            _STUDY_PAYLOAD = None
        return jobs

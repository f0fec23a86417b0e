"""The simulation engine: the caches and counters in front of training
and the kernel.

:class:`SimulationEngine` is what the execution stack (experiment runner,
study runner, CLI, API session, benchmark harness) drives instead of a
bare :class:`~repro.simulation.cycle_sim.LayerSimulator`.  It owns every
cache and the record of what they did:

* a cache stack of layer **compute parts** (the kernel's cycle and MAC
  counts, :data:`~repro.simulation.cycle_sim.LayerCompute`) that skips
  layers whose compute part is known — an in-process memo, always on,
  above an optional content-addressed
  :class:`~repro.engine.cache.ResultCache` on disk;
* the training traces (:meth:`SimulationEngine.trace`): a small LRU in
  memory, then the cache dir's trace store, then training;
* an :class:`EngineStats` record of what happened, which reports surface.

Cache misses go to :meth:`LayerSimulator.compute_layers`, which fuses
every missed layer into one call of the batched scheduling kernel.
Every layer, hit or miss, is then finalized
(:meth:`LayerSimulator.finalize_layer`: memory traffic and the
memory-hierarchy constraint) under the call's full configuration.

One engine serves any number of accelerator configurations: every
``simulate_layers`` call may carry its own ``config`` (and sampling
parameters), and the engine keeps one :class:`LayerSimulator` per
``(config, max_groups)``.  Compute parts are keyed by what stream
extraction and the kernel read
(:func:`~repro.engine.cache.compute_fingerprint`) and the trace, so
configurations that differ only in datatype, memory or energy
parameters reuse each other's compute parts.  This is what lets a
long-lived session run simulate/sweep/explore/roofline workloads
through one cache namespace and one set of counters.

The engine guarantees order preservation: results come back in trace
order whether they were cache hits or freshly simulated.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.models.registry as registry
from repro.core.config import AcceleratorConfig
from repro.engine.cache import (
    ResultCache,
    compute_fingerprint,
    layer_key,
    trace_fingerprint,
    trace_key,
)
from repro.simulation.cycle_sim import (
    LayerCompute,
    LayerResult,
    LayerSimulator,
    traced_layers,
)
from repro.telemetry import metrics as _metrics
from repro.telemetry.tracing import get_tracer
from repro.training.tracing import TrainingTrace

#: Training traces an engine keeps in memory, least recently used first
#: out.  Traces hold full operand masks — by far the largest cached
#: object — so a long-lived server facing many distinct (model,
#: trace-parameter) combinations stays bounded.  The compute-part memo
#: holds small per-layer records and is left unbounded.
MAX_CACHED_TRACES = 16


@dataclass
class EngineStats:
    """Counters describing one engine's activity (reset per engine).

    ``cache_hits`` is the aggregate across the whole cache stack;
    ``memo_hits`` / ``disk_hits`` attribute every hit to the tier that
    served it (in-process memo, on-disk cache).  ``traces_trained`` /
    ``traces_loaded`` count the training traces the engine trained or
    loaded from the cache dir's trace store.
    """

    cache_dir: Optional[str] = None
    layers_simulated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    traces_trained: int = 0
    traces_loaded: int = 0

    @property
    def layers_total(self) -> int:
        """Layers served, whether simulated or loaded from cache."""
        return self.cache_hits + self.layers_simulated

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups that hit (0.0 before any lookup)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot for reports and benchmark emitters."""
        return {
            "cache_dir": self.cache_dir,
            "layers_simulated": self.layers_simulated,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "hit_rate": self.hit_rate,
            "traces_trained": self.traces_trained,
            "traces_loaded": self.traces_loaded,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EngineStats":
        """Rebuild counters from an :meth:`as_dict` document.

        Derived fields (``hit_rate``) and unknown keys — such as the
        ``backend`` name older writers recorded — are ignored, so
        documents from newer (or older) writers still load.
        """
        cache_dir = payload.get("cache_dir")
        return cls(
            cache_dir=str(cache_dir) if cache_dir else None,
            layers_simulated=int(payload.get("layers_simulated", 0)),
            cache_hits=int(payload.get("cache_hits", 0)),
            cache_misses=int(payload.get("cache_misses", 0)),
            memo_hits=int(payload.get("memo_hits", 0)),
            disk_hits=int(payload.get("disk_hits", 0)),
            traces_trained=int(payload.get("traces_trained", 0)),
            traces_loaded=int(payload.get("traces_loaded", 0)),
        )

    def snapshot(self) -> "EngineStats":
        """An independent copy of the current counters."""
        return replace(self)

    def since(self, earlier: "EngineStats") -> "EngineStats":
        """The activity between an earlier :meth:`snapshot` and now.

        Metadata (``cache_dir``) comes from ``self``; the counters are
        differences.  This is how a shared long-lived engine reports
        per-request work.
        """
        return EngineStats(
            cache_dir=self.cache_dir,
            layers_simulated=self.layers_simulated - earlier.layers_simulated,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_misses=self.cache_misses - earlier.cache_misses,
            memo_hits=self.memo_hits - earlier.memo_hits,
            disk_hits=self.disk_hits - earlier.disk_hits,
            traces_trained=self.traces_trained - earlier.traces_trained,
            traces_loaded=self.traces_loaded - earlier.traces_loaded,
        )


class SimulationEngine:
    """Cache-aware entry point for layer simulations.

    Parameters
    ----------
    config:
        Default accelerator configuration (Table 2 defaults when
        omitted).  Individual ``simulate_layers`` calls may override it.
    cache_dir:
        Directory for the on-disk cache of compute parts and training
        traces; ``None`` disables the disk layer.  Compute parts are
        keyed by (compute fingerprint, trace fingerprint), so any change
        to what stream extraction or the kernel reads — tile rows,
        lanes, staging depth, refill limit, power gating, the sampling
        cap — or to the traced operands invalidates them structurally,
        while every other configuration field is applied afresh on each
        hit.  Several processes may point at one directory: whatever one
        of them stores, the others load instead of re-simulating or
        retraining.
    max_groups:
        Default stream-sampling cap, forwarded to the layer simulator
        (and folded into the cache key).  Overridable per call.
    train:
        The train-and-trace function :meth:`trace` calls on a miss;
        ``None`` means :func:`repro.models.registry.trace_workload`.

    Every compute part is also kept in an in-process memo keyed
    identically to the disk cache, so repeated requests on one engine
    never re-simulate, even with no ``cache_dir``.  Memo hits count as
    cache hits in :attr:`stats`.
    """

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        cache_dir: Optional[str] = None,
        max_groups: Optional[int] = 256,
        train: Optional[Callable[..., TrainingTrace]] = None,
    ):
        self.config = config or AcceleratorConfig()
        self.max_groups = max_groups
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.train = registry.trace_workload if train is None else train
        self._memo: Dict[str, LayerCompute] = {}
        #: Training traces kept warm, keyed by their training parameters.
        self.traces: "OrderedDict[Tuple, TrainingTrace]" = OrderedDict()
        self._simulators: Dict[
            Tuple[AcceleratorConfig, Optional[int]], Tuple[LayerSimulator, str]
        ] = {}
        self.stats = EngineStats(cache_dir=str(cache_dir) if cache_dir else None)

    # ------------------------------------------------------------------
    def _resolve(
        self,
        config: Optional[AcceleratorConfig],
        max_groups: Optional[int],
    ) -> Tuple[LayerSimulator, str]:
        """The (simulator, compute fingerprint) pair for one call's inputs."""
        config = self.config if config is None else config
        max_groups = self.max_groups if max_groups is None else max_groups
        key = (config, max_groups)
        if key not in self._simulators:
            simulator = LayerSimulator(config, max_groups=max_groups)
            self._simulators[key] = (simulator, compute_fingerprint(simulator))
        return self._simulators[key]

    def simulator_for(
        self,
        config: Optional[AcceleratorConfig] = None,
        max_groups: Optional[int] = None,
    ) -> LayerSimulator:
        """The layer simulator bound to one configuration (built once)."""
        simulator, _ = self._resolve(config, max_groups)
        return simulator

    @contextmanager
    def disk_cache(self, cache_dir):
        """Temporarily attach an on-disk cache layer (no-op if one exists).

        Used by sessions whose engine was built without a ``cache_dir``
        when a workflow brings its own persistence — e.g. a study's
        ``<study_dir>/cache`` — so interrupted studies still resume with
        layer-level disk hits in a fresh process.  The engine's own
        configuration wins when set; results stored while attached also
        land in the memo, and traces trained while attached are stored in
        the attached dir, so nothing is lost on detach.
        """
        if cache_dir is None or self.cache is not None:
            yield self
            return
        previous_label = self.stats.cache_dir
        self.cache = ResultCache(cache_dir)
        self.stats.cache_dir = str(cache_dir)
        try:
            yield self
        finally:
            self.cache = None
            self.stats.cache_dir = previous_label

    def _lookup(self, key: str) -> Optional[LayerCompute]:
        """Read through the cache stack: memo -> disk.

        Disk hits are promoted into the memo, so repeated lookups in one
        process stop re-reading files.  Per-tier hit counters land in
        :attr:`stats`; the aggregate ``cache_hits`` is maintained by the
        caller.
        """
        hit = self._memo.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        if self.cache is not None:
            hit = self.cache.load(key)
            if hit is not None:
                self.stats.disk_hits += 1
                self._memo[key] = hit
        return hit

    def _store(self, key: str, compute: LayerCompute) -> None:
        self._memo[key] = compute
        if self.cache is not None:
            self.cache.store(key, compute)

    # ------------------------------------------------------------------
    def trace(
        self, model: str, *, epochs: int, batches_per_epoch: int,
        batch_size: int, seed: int, trace_max_batch: Optional[int] = None,
    ) -> TrainingTrace:
        """Train-and-trace one workload, once per engine and cache dir.

        The in-memory LRU (:data:`MAX_CACHED_TRACES`) is keyed by the
        training parameters.  On a miss with a disk cache attached, the
        trace is loaded from the cache dir if any process stored it, and
        otherwise trained (with :attr:`train`) and stored there.
        :attr:`stats` counts every trace trained or loaded.
        """
        key = (model, epochs, batches_per_epoch, batch_size, seed,
               trace_max_batch)
        if key in self.traces:
            self.traces.move_to_end(key)
        else:
            params = dict(
                epochs=epochs, batches_per_epoch=batches_per_epoch,
                batch_size=batch_size, seed=seed,
                trace_max_batch=trace_max_batch,
                learning_rate=registry.DEFAULT_LEARNING_RATE,
            )
            store = self.cache
            stored_key = trace = None
            if store is not None:
                stored_key = trace_key(model, **params)
                trace = store.load_trace(stored_key)
                _metrics.TRACE_STORE.inc(result="miss" if trace is None else "hit")
            if trace is None:
                with get_tracer().span(
                    "session.trace", model=model, epochs=epochs,
                    batches_per_epoch=batches_per_epoch, batch_size=batch_size,
                ):
                    trace = self.train(model, **params)
                self.stats.traces_trained += 1
                if store is not None:
                    store.store_trace(stored_key, trace)
            else:
                self.stats.traces_loaded += 1
            self.traces[key] = trace
            while len(self.traces) > MAX_CACHED_TRACES:
                self.traces.popitem(last=False)
        _metrics.CACHED_TRACES.set(len(self.traces))
        return self.traces[key]

    # ------------------------------------------------------------------
    def simulate_layers(
        self,
        traces: Sequence,
        config: Optional[AcceleratorConfig] = None,
        max_groups: Optional[int] = None,
    ) -> List[LayerResult]:
        """Simulate every traced layer, consulting the cache stack first.

        ``config`` / ``max_groups`` default to the engine's
        construction-time values; passing them lets one engine serve many
        accelerator configurations (each gets its own simulator, all
        sharing the memo, the disk cache and the counters).

        The cache stack holds compute parts.  Hits are loaded; misses are
        batched into one :meth:`LayerSimulator.compute_layers` call (so
        the kernel fuses only the layers that actually need simulating)
        and stored.  Every layer, hit or miss, is then finalized under
        this call's configuration, in trace order.
        """
        work = traced_layers(traces)
        simulator, compute_fp = self._resolve(config, max_groups)
        tracer = get_tracer()
        computes: List[Optional[LayerCompute]] = [None] * len(work)
        keys = [layer_key(compute_fp, trace_fingerprint(trace)) for trace in work]
        misses = []
        tiers_before = (self.stats.memo_hits, self.stats.disk_hits)
        with tracer.span("engine.cache_lookup", layers=len(work)) as span:
            for index, key in enumerate(keys):
                cached = self._lookup(key)
                if cached is None:
                    misses.append(index)
                else:
                    computes[index] = cached
            span.set(hits=len(work) - len(misses), misses=len(misses))
        self.stats.cache_hits += len(work) - len(misses)
        self.stats.cache_misses += len(misses)
        # Feed the process-wide registry the same per-call deltas the
        # stats counters record — one increment per tier per batch, so
        # the hot per-layer lookup loop stays untouched.
        for tier, before, now in zip(
            ("memo", "disk"), tiers_before,
            (self.stats.memo_hits, self.stats.disk_hits),
        ):
            if now > before:
                _metrics.CACHE_HITS.inc(now - before, tier=tier)
        if misses:
            _metrics.CACHE_MISSES.inc(len(misses))
            with tracer.span("engine.simulate_layers", layers=len(misses)):
                fresh = simulator.compute_layers([work[i] for i in misses])
            self.stats.layers_simulated += len(fresh)
            _metrics.LAYERS_SIMULATED.inc(len(fresh))
            for index, compute in zip(misses, fresh):
                self._store(keys[index], compute)
                computes[index] = compute
        return [
            simulator.finalize_layer(trace, compute)
            for trace, compute in zip(work, computes)
        ]

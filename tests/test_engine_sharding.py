"""Shared result-tier tests.

Engines share results through one on-disk cache directory: whatever one
engine stores there, any other engine (or process) pointed at the same
directory loads instead of re-simulating.  Enforced here:

* a second engine on the same directory re-simulates nothing and returns
  bit-identical results;
* the in-process memo sits above the shared directory, and hits read from
  the directory are promoted into the memo;
* the per-tier hit counters survive ``EngineStats`` round trips.
"""

import shutil

import numpy as np

from repro.engine import EngineStats, ResultCache, SimulationEngine
from repro.simulation.cycle_sim import LayerSimulator
from tests.test_engine_backends import assert_results_identical, make_conv_trace


class TestSharedTier:
    def test_shared_cache_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        trace = make_conv_trace(rng)
        result = LayerSimulator(max_groups=4).simulate_layer(trace)
        cache = ResultCache(tmp_path / "shared")
        cache.store("k" * 64, result)
        loaded = ResultCache(tmp_path / "shared").load("k" * 64)
        assert loaded.operations == result.operations
        assert loaded.traffic == result.traffic
        assert cache.load("m" * 64) is None

    def test_second_engine_serves_from_shared_tier(self, tmp_path):
        rng = np.random.default_rng(2)
        traces = [make_conv_trace(rng, name=f"c{i}") for i in range(3)]
        shared = str(tmp_path / "shared")

        first = SimulationEngine(backend="reference", cache_dir=shared,
                                 max_groups=8)
        fresh = first.simulate_layers(traces)
        assert first.stats.layers_simulated == 3
        assert first.stats.disk_hits == 0

        second = SimulationEngine(backend="vectorized", cache_dir=shared,
                                  max_groups=8)
        warm = second.simulate_layers(traces)
        assert second.stats.layers_simulated == 0
        assert second.stats.disk_hits == 3
        assert second.stats.cache_hits == 3  # aggregate includes the tier
        assert_results_identical(warm, fresh)

    def test_disk_hits_promote_into_shared_tier(self, tmp_path):
        rng = np.random.default_rng(3)
        traces = [make_conv_trace(rng, name="p")]
        shared = tmp_path / "shared"

        SimulationEngine(backend="vectorized", cache_dir=str(shared),
                         max_groups=8).simulate_layers(traces)
        engine = SimulationEngine(backend="vectorized", cache_dir=str(shared),
                                  memory_cache=True, max_groups=8)
        fresh = engine.simulate_layers(traces)
        assert engine.stats.disk_hits == 1
        assert engine.stats.layers_simulated == 0

        # With the directory gone the promoted entry still serves.
        shutil.rmtree(shared)
        again = engine.simulate_layers(traces)
        assert engine.stats.memo_hits == 1
        assert engine.stats.disk_hits == 1
        assert engine.stats.layers_simulated == 0
        assert_results_identical(again, fresh)

    def test_memo_sits_above_shared_tier(self, tmp_path):
        rng = np.random.default_rng(4)
        traces = [make_conv_trace(rng, name="m")]
        engine = SimulationEngine(backend="vectorized", memory_cache=True,
                                  cache_dir=str(tmp_path / "s"),
                                  max_groups=8)
        engine.simulate_layers(traces)
        engine.simulate_layers(traces)
        assert engine.stats.memo_hits == 1
        assert engine.stats.disk_hits == 0
        assert engine.stats.layers_simulated == 1

    def test_stats_round_trip_with_tier_counters(self):
        stats = EngineStats(backend="vectorized", cache_dir="shared-cache",
                            cache_hits=5, memo_hits=3, disk_hits=2,
                            cache_misses=1)
        payload = stats.as_dict()
        assert payload["memo_hits"] == 3
        assert payload["disk_hits"] == 2
        assert EngineStats.from_dict(payload) == stats
        delta = stats.since(EngineStats(backend="vectorized",
                                        cache_dir="shared-cache",
                                        memo_hits=1, disk_hits=1))
        assert delta.memo_hits == 2
        assert delta.disk_hits == 1

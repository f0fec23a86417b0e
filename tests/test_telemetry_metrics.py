"""Metrics instruments, registry semantics, and the exposition formats.

Counters only go up, gauges move freely, histograms bucket cumulatively
with Prometheus ``le``/``_sum``/``_count`` semantics; registration is
idempotent per (name, type, labels); rendering is deterministic and the
instruments stay correct under concurrent writers (the threading HTTP
server and the job worker pool update them from many threads).
"""

import threading

import pytest

from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.metrics import (
    CACHE_HITS,
    CACHE_MISSES,
    LAYERS_SIMULATED,
    get_registry,
)


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        counter = Counter("test_total", "testing", labels=("kind",))
        counter.inc(kind="a")
        counter.inc(2.5, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3.5
        assert counter.value(kind="b") == 1.0
        assert counter.value(kind="unseen") == 0.0

    def test_negative_increment_rejected(self):
        counter = Counter("test_total", "testing")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_label_set_must_match_exactly(self):
        counter = Counter("test_total", "testing", labels=("kind",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc()
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(kind="a", extra="b")

    def test_render_sorts_series_and_escapes(self):
        counter = Counter("test_total", "testing", labels=("kind",))
        counter.inc(4, kind="b")
        counter.inc(1, kind='a"quote\\slash')
        assert counter.render() == [
            'test_total{kind="a\\"quote\\\\slash"} 1',
            'test_total{kind="b"} 4',
        ]


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("test_gauge", "testing")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value() == 3.0
        gauge.set(0.5)
        assert gauge.value() == 0.5
        assert gauge.render() == ["test_gauge 0.5"]


class TestHistogram:
    def test_cumulative_buckets_sum_and_count(self):
        histogram = Histogram("test_seconds", "testing", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        lines = histogram.render()
        assert lines == [
            'test_seconds_bucket{le="0.1"} 1',
            'test_seconds_bucket{le="1"} 3',
            'test_seconds_bucket{le="10"} 4',
            'test_seconds_bucket{le="+Inf"} 5',
            "test_seconds_sum 56.05",
            "test_seconds_count 5",
        ]
        assert histogram.value() == 5

    def test_snapshot_structure(self):
        histogram = Histogram("test_seconds", "testing", buckets=(1.0,),
                              labels=("kind",))
        histogram.observe(0.5, kind="simulate")
        snap = histogram.snapshot()
        assert snap["type"] == "histogram"
        assert snap["buckets"] == [1.0]
        (series,) = snap["values"]
        assert series["labels"] == {"kind": "simulate"}
        assert series["counts"] == [1, 0]
        assert series["sum"] == 0.5
        assert series["count"] == 1

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("test", "testing", buckets=())


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "x", labels=("kind",))
        again = registry.counter("x_total", "x", labels=("kind",))
        assert again is first

    def test_conflicting_registration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x", labels=("kind",))
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total", "x", labels=("kind",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x_total", "x", labels=("other",))

    def test_prometheus_rendering_has_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "second").inc(2)
        registry.gauge("a_gauge", "first").set(1)
        text = registry.render_prometheus()
        assert text.splitlines() == [
            "# HELP a_gauge first",
            "# TYPE a_gauge gauge",
            "a_gauge 1",
            "# HELP b_total second",
            "# TYPE b_total counter",
            "b_total 2",
        ]
        assert text.endswith("\n")

    def test_as_dict_mirrors_rendering(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "second", labels=("kind",)).inc(3, kind="x")
        payload = registry.as_dict()
        assert payload == {
            "b_total": {
                "type": "counter",
                "help": "second",
                "values": [{"labels": {"kind": "x"}, "value": 3.0}],
            }
        }

    def test_default_registry_preseeds_cache_tiers(self):
        payload = get_registry().as_dict()
        tiers = {
            series["labels"]["tier"]
            for series in payload["repro_cache_hits_total"]["values"]
        }
        assert tiers == {"memo", "disk"}
        assert "repro_cache_misses_total" in payload
        results = {
            series["labels"]["result"]
            for series in payload["repro_trace_store_total"]["values"]
        }
        assert results == {"hit", "miss"}


class TestConcurrency:
    def test_concurrent_counter_updates_do_not_lose_increments(self):
        counter = Counter("test_total", "testing", labels=("kind",))
        histogram = Histogram("test_seconds", "testing", buckets=(0.5,))
        workers, per_worker = 8, 500

        def hammer(index):
            kind = f"k{index % 2}"
            for _ in range(per_worker):
                counter.inc(kind=kind)
                histogram.observe(index * 0.001)

        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(kind="k0") == workers / 2 * per_worker
        assert counter.value(kind="k1") == workers / 2 * per_worker
        assert histogram.value() == workers * per_worker


class TestEngineFeed:
    def test_engine_feeds_layer_and_cache_counters(self, tmp_path):
        import numpy as np

        from repro.engine import SimulationEngine
        from tests.test_engine_backends import make_conv_trace

        rng = np.random.default_rng(7)
        layers = [make_conv_trace(rng, name=f"conv{i}") for i in range(2)]
        engine = SimulationEngine(cache_dir=tmp_path / "cache", max_groups=8)
        simulated_before = LAYERS_SIMULATED.value()
        misses_before = CACHE_MISSES.value()
        disk_before = CACHE_HITS.value(tier="disk")
        memo_before = CACHE_HITS.value(tier="memo")

        engine.simulate_layers(layers)
        assert LAYERS_SIMULATED.value() == simulated_before + 2
        assert CACHE_MISSES.value() == misses_before + 2

        # Second pass, through a fresh engine on the same dir: its memo
        # is empty, so the disk tier serves both layers...
        fresh = SimulationEngine(cache_dir=tmp_path / "cache", max_groups=8)
        fresh.simulate_layers(layers)
        assert CACHE_HITS.value(tier="disk") == disk_before + 2
        # ...and promotes them, so a third pass is served by the memo.
        fresh.simulate_layers(layers)
        assert CACHE_HITS.value(tier="memo") == memo_before + 2
        assert LAYERS_SIMULATED.value() == simulated_before + 2

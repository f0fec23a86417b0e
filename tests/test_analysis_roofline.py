"""Tests for the roofline analysis and the memory-aware acceptance criteria.

The headline guarantees: with the hierarchy left unbounded the simulation
reproduces the compute-only numbers exactly, and with a finite-bandwidth
configuration at least one model-zoo layer is classified memory-bound with
stall cycles that lower the reported speedup.
"""

import pytest

from repro.analysis.roofline import (
    RooflinePoint,
    RooflineReport,
    format_roofline_report,
    operational_intensity,
    roofline_report,
)
from repro.core.config import AcceleratorConfig
from repro.models.registry import trace_workload
from repro.simulation.runner import ExperimentRunner
from tests.test_engine_backends import run_on_oracle


@pytest.fixture(scope="module")
def snli_trace():
    return trace_workload(
        "snli", epochs=1, batches_per_epoch=1, batch_size=8, seed=0
    )


def run(config, trace, **kwargs):
    runner = ExperimentRunner(config, max_groups=16, **kwargs)
    return runner.run_final_epoch(trace)


class TestRooflineMath:
    def test_operational_intensity(self):
        assert operational_intensity(100, 50) == 2.0
        assert operational_intensity(0, 0) == 0.0
        assert operational_intensity(10, 0) == float("inf")
        with pytest.raises(ValueError):
            operational_intensity(-1, 1)

    def test_ridge_point_and_attainable(self):
        report = RooflineReport(
            model_name="m", peak_macs_per_cycle=4096.0, dram_bytes_per_cycle=102.4
        )
        assert report.ridge_point == pytest.approx(40.0)
        # Left of the ridge: the memory roof; right of it: the compute roof.
        assert report.attainable_macs_per_cycle(10.0) == pytest.approx(1024.0)
        assert report.attainable_macs_per_cycle(100.0) == pytest.approx(4096.0)
        assert report.classify(10.0) == "memory"
        assert report.classify(100.0) == "compute"

    def test_unbounded_has_no_ridge(self):
        report = RooflineReport(
            model_name="m", peak_macs_per_cycle=4096.0, dram_bytes_per_cycle=None
        )
        assert report.ridge_point is None
        assert report.attainable_macs_per_cycle(0.001) == 4096.0
        assert report.classify(0.001) == "compute"

    def test_point_properties(self):
        point = RooflinePoint(
            layer="conv1", operation="AxW", macs=1000, dram_bytes=500,
            compute_cycles=10, total_cycles=40, stall_cycles=30, bound="dram",
        )
        assert point.intensity == 2.0
        assert point.achieved_macs_per_cycle == 25.0
        assert point.stall_fraction == 0.75
        assert point.memory_bound


class TestRooflineReportFromModel:
    def test_unbounded_report_all_compute_bound(self, snli_trace):
        config = AcceleratorConfig()
        result = run(config, snli_trace)
        report = roofline_report(result, config)
        assert report.ridge_point is None
        assert report.points
        assert report.memory_bound_points() == []
        assert set(report.layer_bounds().values()) == {"compute"}

    def test_finite_bandwidth_classifies_model_zoo_layer_memory_bound(
        self, snli_trace
    ):
        """Acceptance: a bandwidth-starved config makes real layers stall."""
        free_config = AcceleratorConfig()
        tight_config = AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=2.0)
        free = run(free_config, snli_trace)
        tight = run(tight_config, snli_trace)
        report = roofline_report(tight, tight_config)
        assert report.memory_bound_points()
        assert "memory" not in report.layer_bounds().values()  # named levels
        assert any(b in ("dram", "sram") for b in report.layer_bounds().values())
        # The stalls lower the reported speedup against the unbounded run.
        assert tight.stall_cycles()["tensordash"] > 0
        assert tight.speedup() < free.speedup()
        # Achieved throughput never exceeds the roofline.
        for point in report.points:
            attainable = report.attainable_macs_per_cycle(point.intensity)
            assert point.achieved_macs_per_cycle <= attainable * (1 + 1e-9)

    def test_backends_identical_under_finite_hierarchy(self, snli_trace):
        config = AcceleratorConfig().with_hierarchy(
            dram_bandwidth_gbps=2.0, sram_kb=64
        )
        with run_on_oracle():
            reference = run(config, snli_trace)
        vectorized = run(config, snli_trace)
        assert [r.layer_name for r in reference.layer_results] == [
            r.layer_name for r in vectorized.layer_results
        ]
        for ref, vec in zip(reference.layer_results, vectorized.layer_results):
            assert ref.operations == vec.operations
            assert ref.traffic == vec.traffic

    def test_format_roofline_report(self, snli_trace):
        config = AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=2.0)
        result = run(config, snli_trace)
        text = format_roofline_report(roofline_report(result, config))
        assert "ridge point" in text
        assert "bound" in text
        assert "dram" in text

    def test_as_dict_round_trips_to_json(self, snli_trace):
        import json

        config = AcceleratorConfig().with_hierarchy(dram_bandwidth_gbps=2.0)
        result = run(config, snli_trace)
        payload = roofline_report(result, config).as_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["ridge_point"] == pytest.approx(payload["ridge_point"])
        assert parsed["memory_bound_points"] > 0
        assert len(parsed["points"]) == len(payload["points"])

"""Tests for study specifications, expansion, sampling and scenarios."""

import itertools
import json

import numpy as np
import pytest

from repro.explore import StudySpec, apply_scenario, parse_objectives, parse_scenario
from repro.training.tracing import EpochTrace, LayerTrace


def small_spec(**overrides):
    payload = {
        "name": "t",
        "workloads": ["snli"],
        "knobs": {"rows": [1, 4], "staging": [2, 3]},
        "epochs": 1,
        "batches_per_epoch": 1,
        "batch_size": 4,
        "max_groups": 8,
    }
    payload.update(overrides)
    return StudySpec.from_dict(payload)


class TestSpecValidation:
    def test_round_trips_through_dict(self):
        spec = small_spec()
        clone = StudySpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.fingerprint() == spec.fingerprint()

    def test_loads_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(small_spec().to_dict()))
        assert StudySpec.from_json(path).name == "t"

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            StudySpec.from_json(path)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown spec field"):
            small_spec(knbos={"rows": [1]})

    def test_rejects_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            small_spec(workloads=["not-a-model"])

    def test_rejects_unknown_knob(self):
        with pytest.raises(ValueError, match="unknown knob"):
            small_spec(knobs={"voltage": [1]})

    def test_rejects_invalid_knob_value(self):
        with pytest.raises(ValueError, match="invalid value"):
            small_spec(knobs={"datatype": ["fp7"]})
        with pytest.raises(ValueError, match="invalid value"):
            small_spec(knobs={"rows": [0]})

    def test_rejects_invalid_memory_knob_values(self):
        with pytest.raises(ValueError, match="invalid value"):
            small_spec(knobs={"dram_bandwidth_gbps": [0]})
        with pytest.raises(ValueError, match="invalid value"):
            small_spec(knobs={"sram_kb": [-1]})

    def test_rejects_empty_knob_values(self):
        with pytest.raises(ValueError, match="non-empty list"):
            small_spec(knobs={"rows": []})

    def test_rejects_bad_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            small_spec(scenarios=["gaussian:0.5"])

    def test_rejects_sample_without_random_mode(self):
        with pytest.raises(ValueError, match="sample"):
            small_spec(sample=3)

    def test_random_mode_requires_sample(self):
        with pytest.raises(ValueError, match="sample"):
            small_spec(mode="random")

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective"):
            small_spec(objectives=["throughput"])


class TestExpansion:
    def test_cartesian_size_and_order(self):
        spec = small_spec(scenarios=["traced", "random:0.5"])
        assert spec.space_size == 2 * 2 * 2
        points = spec.expand()
        assert len(points) == 8
        # Deterministic: workload-major, then scenario, then knob product.
        assert points[0].scenario == "traced"
        assert points[0].knobs == (("rows", 1), ("staging", 2))
        assert points[-1].knobs == (("rows", 4), ("staging", 3))

    def test_no_knobs_yields_default_config_point(self):
        spec = small_spec(knobs={})
        points = spec.expand()
        assert len(points) == 1
        assert points[0].config_label == "default"

    def test_point_ids_stable_and_distinct(self):
        first = {p.point_id for p in small_spec().expand()}
        second = {p.point_id for p in small_spec().expand()}
        assert first == second
        assert len(first) == 4

    def test_point_ids_survive_knob_reordering(self):
        # A reordered spec file keeps both the fingerprint and every
        # point id, so an existing manifest still resumes fully.
        a = small_spec(knobs={"rows": [1, 4], "staging": [2, 3]})
        b = small_spec(knobs={"staging": [2, 3], "rows": [1, 4]})
        assert a.fingerprint() == b.fingerprint()
        assert {p.point_id for p in a.expand()} == {p.point_id for p in b.expand()}

    def test_point_id_changes_with_trace_params(self):
        a = small_spec().expand()[0]
        b = small_spec(epochs=2).expand()[0]
        assert a.point_id != b.point_id

    def test_config_applies_every_knob(self):
        spec = small_spec(
            knobs={"rows": [8], "columns": [2], "tiles": [4], "macs": [8],
                   "staging": [2], "datatype": ["bfloat16"], "power_gating": [True]}
        )
        config = spec.expand()[0].config()
        assert config.tile.rows == 8
        assert config.tile.columns == 2
        assert config.num_tiles == 4
        assert config.pe.lanes == 8
        assert config.pe.staging_depth == 2
        assert config.pe.datatype == "bfloat16"
        assert config.power_gated

    def test_config_applies_memory_hierarchy_knobs(self):
        spec = small_spec(knobs={"dram_bandwidth_gbps": [12.8], "sram_kb": [256]})
        config = spec.expand()[0].config()
        assert config.hierarchy.dram_bandwidth_gbps == 12.8
        assert config.hierarchy.sram_kb == 256
        assert not config.hierarchy.is_unbounded

    def test_random_sampling_is_seeded_subset(self):
        spec = small_spec(mode="random", sample=3, seed=42)
        sampled = spec.expand()
        assert len(sampled) == 3
        assert [p.point_id for p in sampled] == [
            p.point_id for p in small_spec(mode="random", sample=3, seed=42).expand()
        ]
        # The sample is a subset of the same-seed cartesian space (the
        # seed also feeds training, so it is part of every point id).
        full_ids = {p.point_id for p in small_spec(seed=42).expand()}
        assert all(p.point_id in full_ids for p in sampled)

    def test_random_sampling_differs_by_seed(self):
        a = [p.point_id for p in small_spec(mode="random", sample=2, seed=0).expand()]
        b = [p.point_id for p in small_spec(mode="random", sample=2, seed=1).expand()]
        assert a != b

    def test_oversampling_returns_whole_space(self):
        spec = small_spec(mode="random", sample=100)
        assert len(spec.expand()) == spec.space_size

    def test_expansion_order_is_the_itertools_product(self):
        # The reference order: workloads, then scenarios, then the knob
        # values with the first knob varying slowest.
        knobs = {"rows": [1, 4, 8], "staging": [2, 3], "datatype": ["fp32", "bfloat16"]}
        spec = small_spec(
            workloads=["snli", "alexnet"], knobs=knobs,
            scenarios=["traced", "random:0.5"],
        )
        expected = [
            (workload, scenario, tuple(zip(knobs, values)))
            for workload, scenario, *values in itertools.product(
                spec.workloads, spec.scenarios, *knobs.values()
            )
        ]
        points = spec.expand()
        assert [(p.workload, p.scenario, p.knobs) for p in points] == expected
        sampled = StudySpec.from_dict(
            {**spec.to_dict(), "mode": "random", "sample": 7}
        ).expand()
        positions = [points.index(p) for p in sampled]
        assert positions == sorted(positions) and len(set(positions)) == 7

    def test_fingerprint_ignores_presentation_fields(self):
        base = small_spec()
        assert small_spec(name="renamed").fingerprint() == base.fingerprint()
        assert small_spec(objectives=["speedup"]).fingerprint() == base.fingerprint()
        assert small_spec(mode="random", sample=2).fingerprint() == base.fingerprint()
        assert small_spec(max_groups=16).fingerprint() != base.fingerprint()
        assert small_spec(scenarios=["random:0.5"]).fingerprint() != base.fingerprint()


class TestScenarios:
    def test_parse_canonicalises(self):
        assert parse_scenario("TRACED") == "traced"
        assert parse_scenario("random:0.70") == "random:0.7"

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            parse_scenario("random:1.0")
        with pytest.raises(ValueError):
            parse_scenario("random:-0.1")

    def _epoch(self):
        rng = np.random.default_rng(0)
        layer = LayerTrace(
            layer_name="fc1",
            layer_type="fc",
            weight_mask=np.ones((8, 16), dtype=bool),
            activation_mask=rng.random((8, 16)) >= 0.3,
            output_gradient_mask=rng.random((8, 8)) >= 0.3,
            activation_sparsity=0.3,
            gradient_sparsity=0.3,
            macs=1024,
        )
        return EpochTrace(epoch=0, layers=[layer])

    def test_traced_scenario_is_identity(self):
        epoch = self._epoch()
        assert apply_scenario(epoch, "traced") is epoch

    def test_random_scenario_imposes_sparsity(self):
        epoch = apply_scenario(self._epoch(), "random:0.8", seed=0)
        layer = epoch.layers[0]
        assert layer.activation_sparsity == pytest.approx(0.8, abs=0.15)
        assert layer.gradient_sparsity == pytest.approx(0.8, abs=0.2)
        # Shapes, weights and MAC counts are untouched.
        original = self._epoch().layers[0]
        assert layer.activation_mask.shape == original.activation_mask.shape
        assert np.array_equal(layer.weight_mask, original.weight_mask)
        assert layer.macs == original.macs

    def test_random_scenario_is_deterministic(self):
        a = apply_scenario(self._epoch(), "random:0.5", seed=7)
        b = apply_scenario(self._epoch(), "random:0.5", seed=7)
        assert np.array_equal(a.layers[0].activation_mask, b.layers[0].activation_mask)
        c = apply_scenario(self._epoch(), "random:0.5", seed=8)
        assert not np.array_equal(
            a.layers[0].activation_mask, c.layers[0].activation_mask
        )


class TestObjectives:
    def test_defaults_orient_from_registry(self):
        objectives = parse_objectives(["speedup", "area_overhead"])
        assert objectives[0].maximize
        assert not objectives[1].maximize

    def test_explicit_direction_overrides(self):
        objectives = parse_objectives(["area_overhead:max"])
        assert objectives[0].maximize

    def test_explicit_direction_allows_unregistered_metrics(self):
        # Any recorded metric works as a frontier axis when its
        # orientation is spelled out.
        objectives = parse_objectives(["baseline_energy_pj:min"])
        assert objectives[0].name == "baseline_energy_pj"
        assert not objectives[0].maximize

    def test_requires_at_least_one(self):
        with pytest.raises(ValueError):
            parse_objectives([])

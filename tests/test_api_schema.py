"""Schema round-trips and validation errors for the ``repro.api`` types.

Every request/result type must satisfy ``from_dict(to_dict(x)) == x`` —
including through an actual ``json.dumps``/``json.loads`` cycle — and
every invalid document must fail with a :class:`SchemaError` that names
the offending field.
"""

import json

import pytest

from repro.api.schema import (
    SCHEMA_VERSION,
    ApiResult,
    ExploreRequest,
    ExploreResult,
    RooflineRequest,
    RooflineResult,
    SchemaError,
    SimulateRequest,
    SimulateResult,
    SweepRequest,
    SweepResult,
    request_from_dict,
)

TINY_SPEC = {
    "name": "tiny",
    "workloads": ["snli"],
    "knobs": {"staging": [2, 3]},
    "epochs": 1,
    "batches_per_epoch": 1,
    "batch_size": 4,
    "max_groups": 8,
}


def _sample_instances():
    """One representative instance of every schema type."""
    simulate_result = SimulateResult(
        model="snli",
        config="16 tiles",
        potentials={"AxW": 1.5, "Total": 1.4},
        speedups={"AxW": 1.2, "Total": 1.3},
        core_energy_efficiency=1.1,
        overall_energy_efficiency=1.05,
    )
    roofline_result = RooflineResult(
        model="snli",
        config="16 tiles",
        roofline={
            "model": "snli",
            "peak_macs_per_cycle": 4096.0,
            "dram_bytes_per_cycle": 4.0,
            "ridge_point": 1024.0,
            "points": [
                {
                    "layer": "fc1", "operation": "AxW", "macs": 100,
                    "dram_bytes": 40, "compute_cycles": 10,
                    "total_cycles": 12, "stall_cycles": 2,
                    "intensity": 2.5, "achieved_macs_per_cycle": 8.33,
                    "stall_fraction": 0.17, "bound": "dram",
                },
            ],
        },
        memory_bound_operations=1,
        total_operations=3,
        stall_fraction=0.2,
        speedup=1.1,
        compute_speedup=1.4,
    )
    study_doc = {
        "spec": dict(TINY_SPEC),
        "objectives": ["speedup (max)"],
        "points": [],
        "frontier": [],
        "best_per_objective": {},
        "resumed_points": 0,
        "engine": {"cache_dir": None, "layers_simulated": 4},
    }
    return [
        SimulateRequest(model="snli"),
        SimulateRequest(model="alexnet", epochs=1, batches_per_epoch=1,
                        batch_size=4, max_groups=8, datatype="bfloat16", seed=7),
        RooflineRequest(model="snli"),
        RooflineRequest(model="snli", dram_bandwidth_gbps=2.0,
                        sram_bandwidth_gbps=100.0, sram_kb=256, seed=1),
        SweepRequest(model="snli"),
        SweepRequest(model="snli", knob="staging", values=[2, 3], epochs=1,
                     max_groups=8, seed=0),
        SweepRequest(model="snli", knob="datatype", values=["fp32", "bfloat16"]),
        ExploreRequest(spec=dict(TINY_SPEC)),
        ExploreRequest(spec=dict(TINY_SPEC), study_dir="/tmp/study",
                       resume=True, sample=1, seed=3, objectives=["speedup"]),
        simulate_result,
        roofline_result,
        SweepResult(model="snli", knob="staging", values=[2, 3], study=study_doc),
        ExploreResult(study=study_doc),
        ApiResult(kind="simulate", result=simulate_result,
                  engine={"cache_dir": None, "cache_hits": 4},
                  elapsed_seconds=0.25),
        ApiResult(kind="roofline", result=roofline_result),
    ]


class TestRoundTrips:
    @pytest.mark.parametrize(
        "instance", _sample_instances(),
        ids=lambda instance: type(instance).__name__,
    )
    def test_dict_round_trip(self, instance):
        assert type(instance).from_dict(instance.to_dict()) == instance

    @pytest.mark.parametrize(
        "instance", _sample_instances(),
        ids=lambda instance: type(instance).__name__,
    )
    def test_json_round_trip(self, instance):
        wire = json.dumps(instance.to_dict())
        assert type(instance).from_dict(json.loads(wire)) == instance

    def test_requests_are_tagged(self):
        payload = SimulateRequest(model="snli").to_dict()
        assert payload["kind"] == "simulate"
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_request_from_dict_dispatches_on_kind(self):
        for request in (SimulateRequest(model="snli"),
                        RooflineRequest(model="snli"),
                        SweepRequest(model="snli"),
                        ExploreRequest(spec=dict(TINY_SPEC))):
            parsed = request_from_dict(request.to_dict())
            assert parsed == request
            assert type(parsed) is type(request)


class TestValidationErrors:
    def _field_of(self, excinfo):
        return excinfo.value.field

    def test_unknown_model_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            SimulateRequest(model="not-a-model")
        assert self._field_of(excinfo) == "SimulateRequest.model"

    def test_bad_epochs_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            SimulateRequest(model="snli", epochs=0)
        assert self._field_of(excinfo) == "SimulateRequest.epochs"

    def test_bad_datatype_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            SimulateRequest(model="snli", datatype="fp64")
        assert self._field_of(excinfo) == "SimulateRequest.datatype"

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError) as excinfo:
            SimulateRequest.from_dict({"model": "snli", "epoch": 3})
        assert self._field_of(excinfo) == "SimulateRequest.epoch"

    @pytest.mark.parametrize("request_type, payload", [
        (SweepRequest, {"model": "snli"}),
        (ExploreRequest, {"spec": TINY_SPEC}),
    ], ids=["sweep", "explore"])
    def test_removed_study_jobs_field_rejected(self, request_type, payload):
        with pytest.raises(SchemaError) as excinfo:
            request_type.from_dict(dict(payload, study_jobs=2))
        assert self._field_of(excinfo) == f"{request_type.__name__}.study_jobs"

    def test_missing_required_field(self):
        with pytest.raises(SchemaError) as excinfo:
            SimulateRequest.from_dict({"epochs": 2})
        assert self._field_of(excinfo) == "SimulateRequest.model"

    def test_newer_schema_version_rejected(self):
        payload = SimulateRequest(model="snli").to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError) as excinfo:
            SimulateRequest.from_dict(payload)
        assert "schema_version" in self._field_of(excinfo)

    def test_kind_mismatch_rejected(self):
        payload = SimulateRequest(model="snli").to_dict()
        payload["kind"] = "sweep"
        with pytest.raises(SchemaError):
            SimulateRequest.from_dict(payload)

    def test_negative_bandwidth_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            RooflineRequest(model="snli", dram_bandwidth_gbps=-3)
        assert self._field_of(excinfo) == "RooflineRequest.dram_bandwidth_gbps"

    def test_bad_knob_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            SweepRequest(model="snli", knob="wings")
        assert self._field_of(excinfo) == "SweepRequest.knob"

    def test_bad_knob_value_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            SweepRequest(model="snli", knob="rows", values=[0])
        assert self._field_of(excinfo) == "SweepRequest.values"

    def test_empty_values_rejected(self):
        with pytest.raises(SchemaError) as excinfo:
            SweepRequest(model="snli", values=[])
        assert self._field_of(excinfo) == "SweepRequest.values"

    def test_bad_spec_names_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            ExploreRequest(spec={"workloads": ["not-a-model"]})
        assert self._field_of(excinfo) == "ExploreRequest.spec"

    def test_bad_objectives_name_the_field(self):
        with pytest.raises(SchemaError) as excinfo:
            ExploreRequest(spec=dict(TINY_SPEC), objectives=["made_up_metric"])
        assert self._field_of(excinfo) == "ExploreRequest.objectives"

    def test_request_from_dict_requires_kind(self):
        with pytest.raises(SchemaError) as excinfo:
            request_from_dict({"model": "snli"})
        assert self._field_of(excinfo) == "request.kind"

    def test_request_from_dict_rejects_unknown_kind(self):
        with pytest.raises(SchemaError) as excinfo:
            request_from_dict({"kind": "teleport", "model": "snli"})
        assert self._field_of(excinfo) == "request.kind"

    def test_envelope_requires_matching_result_type(self):
        with pytest.raises(SchemaError) as excinfo:
            ApiResult(kind="sweep", result=SimulateResult(model="snli", config="c"))
        assert self._field_of(excinfo) == "ApiResult.result"

    def test_envelope_from_dict_requires_result(self):
        with pytest.raises(SchemaError) as excinfo:
            ApiResult.from_dict({"kind": "simulate"})
        assert self._field_of(excinfo) == "ApiResult.result"

    def test_envelope_rejects_non_object_engine(self):
        payload = ApiResult(
            kind="simulate",
            result=SimulateResult(model="snli", config="c"),
        ).to_dict()
        payload["engine"] = 123
        with pytest.raises(SchemaError) as excinfo:
            ApiResult.from_dict(payload)
        assert self._field_of(excinfo) == "ApiResult.engine"


class TestResolvedSpec:
    def test_sample_and_seed_overrides_compose(self):
        request = ExploreRequest(spec=dict(TINY_SPEC), sample=1, seed=9)
        spec = request.resolved_spec()
        assert spec.mode == "random"
        assert spec.sample == 1
        assert spec.seed == 9

    def test_plain_spec_keeps_cartesian_mode(self):
        spec = ExploreRequest(spec=dict(TINY_SPEC)).resolved_spec()
        assert spec.mode == "cartesian"
        assert spec.space_size == 2

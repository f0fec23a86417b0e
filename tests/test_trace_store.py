"""Training traces stored in the cache dir: round trip, misses, keys, sessions."""

import json
import shutil

import numpy as np
import pytest

import repro.api.session as session_module
import repro.engine.cache as cache_module
import repro.models.registry as registry
from repro.api.session import Session
from repro.engine.cache import ResultCache, trace_fingerprint, trace_key
from repro.explore import StudyRunner, StudySpec, run_study
from repro.models.registry import (
    DEFAULT_LEARNING_RATE,
    available_models,
    trace_workload,
)
from repro.telemetry import metrics

FAST = dict(epochs=1, batches_per_epoch=1, batch_size=4, max_groups=8)
KEY_INPUTS = dict(
    seed=0, epochs=2, batches_per_epoch=2, batch_size=8,
    trace_max_batch=None, learning_rate=DEFAULT_LEARNING_RATE,
)


@pytest.fixture(scope="module")
def zoo_traces():
    return {
        model: trace_workload(model, epochs=2, batches_per_epoch=2, batch_size=8)
        for model in available_models()
    }


def trace_file(cache_dir):
    (path,) = cache_dir.glob("*/*.trace")
    return path


@pytest.mark.parametrize("model", available_models())
def test_round_trip_is_exact_for_every_zoo_model(model, zoo_traces, tmp_path):
    trained = zoo_traces[model]
    store = ResultCache(tmp_path)
    store.store_trace("k" * 64, trained)
    loaded = store.load_trace("k" * 64)
    assert loaded.model_name == trained.model_name
    assert [e.epoch for e in loaded.epochs] == [e.epoch for e in trained.epochs]
    for epoch, twin in zip(trained.epochs, loaded.epochs):
        assert len(twin.layers) == len(epoch.layers)
        for layer, copy in zip(epoch.layers, twin.layers):
            assert trace_fingerprint(copy) == trace_fingerprint(layer)
            for field in ("layer_name", "layer_type", "kernel", "stride",
                          "padding", "macs", "weight_sparsity",
                          "activation_sparsity", "gradient_sparsity"):
                assert getattr(copy, field) == getattr(layer, field), field


def _rewrite_header(data, edit):
    head, _, payload = data.partition(b"\n")
    header = json.loads(head)
    edit(header["epochs"][0]["layers"][0]["masks"])
    return json.dumps(header).encode() + b"\n" + payload


def _first_shape(value):
    def edit(masks):
        name = next(name for name, shape in masks.items() if shape)
        masks[name] = value
    return edit


CORRUPTIONS = {
    "empty": lambda data: b"",
    "not_json": lambda data: b"{not json",
    "header_only": lambda data: data.partition(b"\n")[0] + b"\n",
    "payload_one_byte_short": lambda data: data[:-1],
    "payload_one_byte_long": lambda data: data + b"\0",
    "negative_shape": lambda data: _rewrite_header(data, _first_shape([-8, 1])),
    "huge_shape": lambda data: _rewrite_header(
        data, _first_shape([2 ** 40, 2 ** 40])),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_damaged_trace_file_is_a_miss_then_retrained(
    corruption, tmp_path, monkeypatch,
):
    first = Session(cache_dir=str(tmp_path)).simulate("snli", **FAST)
    path = trace_file(tmp_path)
    intact = path.read_bytes()
    path.write_bytes(CORRUPTIONS[corruption](intact))
    assert ResultCache(tmp_path).load_trace(path.stem) is None

    calls = []
    real = session_module.trace_workload

    def counting(model, **kwargs):
        calls.append(model)
        return real(model, **kwargs)

    monkeypatch.setattr(session_module, "trace_workload", counting)
    again = Session(cache_dir=str(tmp_path)).simulate("snli", **FAST)
    assert calls == ["snli"]
    assert path.read_bytes() == intact   # the retrained trace overwrote it
    assert again.result == first.result


@pytest.mark.parametrize("change", [
    {"model": "alexnet"}, {"seed": 1}, {"epochs": 3},
    {"batches_per_epoch": 3}, {"batch_size": 4}, {"trace_max_batch": 8},
    {"learning_rate": 0.02},
], ids=lambda change: next(iter(change)))
def test_each_training_input_changes_the_key(change):
    inputs = {"model": "snli", **KEY_INPUTS}
    assert trace_key(**{**inputs, **change}) != trace_key(**inputs)


def test_format_version_and_numpy_version_change_the_key(monkeypatch):
    before = trace_key("snli", **KEY_INPUTS)
    monkeypatch.setattr(cache_module, "TRACE_FORMAT_VERSION",
                        cache_module.TRACE_FORMAT_VERSION + 1)
    bumped = trace_key("snli", **KEY_INPUTS)
    monkeypatch.setattr(np, "__version__", "0.0.0")
    assert len({before, bumped, trace_key("snli", **KEY_INPUTS)}) == 3


def test_one_changed_source_byte_changes_the_key(tmp_path, monkeypatch):
    before = trace_key("snli", **KEY_INPUTS)
    for package in cache_module.TRACE_SOURCE_PACKAGES:
        shutil.copytree(cache_module._PACKAGE_ROOT / package, tmp_path / package)
    monkeypatch.setattr(cache_module, "_PACKAGE_ROOT", tmp_path)
    assert trace_key("snli", **KEY_INPUTS) == before   # same bytes, same key
    source = tmp_path / "nn" / "layers" / "conv.py"
    data = bytearray(source.read_bytes())
    data[-1] ^= 1
    source.write_bytes(bytes(data))
    assert trace_key("snli", **KEY_INPUTS) != before


def test_second_session_loads_the_trace_instead_of_training(
    tmp_path, monkeypatch,
):
    hits = metrics.TRACE_STORE.value(result="hit")
    misses = metrics.TRACE_STORE.value(result="miss")
    first = Session(cache_dir=str(tmp_path)).simulate("snli", **FAST)
    assert metrics.TRACE_STORE.value(result="miss") == misses + 1

    def untrainable(model, **kwargs):
        raise AssertionError("the stored trace should have been loaded")

    monkeypatch.setattr(session_module, "trace_workload", untrainable)
    again = Session(cache_dir=str(tmp_path)).simulate("snli", **FAST)
    assert again.result == first.result
    assert again.engine["layers_simulated"] == 0
    assert metrics.TRACE_STORE.value(result="hit") == hits + 1


def test_envelope_counts_trained_and_loaded_traces(tmp_path):
    session = Session(cache_dir=str(tmp_path))
    first = session.simulate("snli", **FAST)
    repeat = session.simulate("snli", **FAST)   # the session's trace memo
    loaded = Session(cache_dir=str(tmp_path)).simulate("snli", **FAST)
    counts = [(r.engine["traces_trained"], r.engine["traces_loaded"])
              for r in (first, repeat, loaded)]
    assert counts == [(1, 0), (0, 0), (0, 1)]
    assert session.stats()["engine"]["traces_trained"] == 1


def test_sessions_without_a_cache_dir_leave_the_store_alone():
    before = [metrics.TRACE_STORE.value(result=r) for r in ("hit", "miss")]
    Session().simulate("snli", **FAST)
    assert [metrics.TRACE_STORE.value(result=r) for r in ("hit", "miss")] == before


def test_explore_keeps_traces_in_the_study_cache(tmp_path, monkeypatch):
    spec = {
        "name": "traces", "workloads": ["snli"], "knobs": {"staging": [2, 3]},
        "epochs": 1, "batches_per_epoch": 1, "batch_size": 4, "max_groups": 8,
    }
    study_dir = tmp_path / "study"
    first = Session().explore(spec, study_dir=str(study_dir))
    trace_file(study_dir / "cache")
    (study_dir / "manifest.json").unlink()

    def untrainable(model, **kwargs):
        raise AssertionError("the stored trace should have been loaded")

    monkeypatch.setattr(session_module, "trace_workload", untrainable)
    again = Session().explore(spec, study_dir=str(study_dir))
    assert again.result.study["points"] == first.result.study["points"]


STUDY = {
    "name": "traces", "workloads": ["snli"], "knobs": {"staging": [2, 3]},
    "epochs": 1, "batches_per_epoch": 1, "batch_size": 4, "max_groups": 8,
}


def _untrainable(model, **kwargs):
    raise AssertionError("the stored trace should have been loaded")


def test_direct_study_runner_loads_the_stored_trace(tmp_path, monkeypatch):
    spec = StudySpec.from_dict(STUDY)
    study_dir = tmp_path / "study"
    first = StudyRunner(spec, study_dir=study_dir).run()
    assert (first.stats.traces_trained, first.stats.traces_loaded) == (1, 0)
    trace_file(study_dir / "cache")
    (study_dir / "manifest.json").unlink()

    monkeypatch.setattr(registry, "trace_workload", _untrainable)
    again = StudyRunner(spec, study_dir=study_dir).run()
    assert (again.stats.traces_trained, again.stats.traces_loaded) == (0, 1)
    assert again.stats.layers_simulated == 0
    assert [p.metrics for p in again.points] == [p.metrics for p in first.points]


def test_run_study_rerun_loads_the_stored_trace(tmp_path, monkeypatch):
    spec = StudySpec.from_dict(STUDY)
    study_dir = tmp_path / "study"
    first = run_study(spec, study_dir=study_dir)
    assert first.stats.traces_trained == 1

    monkeypatch.setattr(registry, "trace_workload", _untrainable)
    again = run_study(spec, study_dir=study_dir)
    assert (again.stats.traces_trained, again.stats.traces_loaded) == (0, 1)


def test_len_counts_layer_results_only(tmp_path):
    result = Session(cache_dir=str(tmp_path)).simulate("snli", **FAST)
    trace_file(tmp_path)
    assert len(ResultCache(tmp_path)) == result.engine["layers_simulated"] > 0

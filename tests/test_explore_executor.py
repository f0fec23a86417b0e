"""Tests for parallel study execution and append-only manifest segments.

Covers the :class:`repro.explore.StudyExecutor` worker pool (bit-identity
with the serial path, exact stats aggregation, serial fallback), the
append-only JSONL checkpoint segment (O(N) checkpoint bytes, kill-and-
resume from the segment, truncation tolerance, compaction), and the
``study_jobs`` knob's resolution through options, schema and CLI.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.schema import ExploreRequest, SchemaError, SweepRequest
from repro.cli import main
from repro.engine.options import resolve_engine_options
from repro.explore import StudyExecutor, StudyRunner, StudySpec
from repro.explore.executor import plan_units
from repro.telemetry import metrics as _metrics


def tiny_spec(**overrides):
    payload = {
        "name": "tiny",
        "workloads": ["snli"],
        "knobs": {"rows": [1, 4], "staging": [2, 3]},
        "epochs": 1,
        "batches_per_epoch": 1,
        "batch_size": 4,
        "max_groups": 8,
    }
    payload.update(overrides)
    return StudySpec.from_dict(payload)


def single_group_spec(**overrides):
    """One accelerator config, several points: one batched engine pass."""
    return tiny_spec(
        name="onegroup",
        knobs={"rows": [4]},
        scenarios=["traced", "random:0.5", "random:0.7"],
        **overrides,
    )


def records(result):
    return [point.to_dict() for point in result.points]


# ----------------------------------------------------------------------
# parallel execution


class TestParallelExecution:
    def test_parallel_matches_serial_bit_identical(self, tmp_path):
        spec = tiny_spec()
        serial = StudyRunner(spec, study_dir=tmp_path / "serial").run()
        parallel = StudyRunner(
            spec, study_dir=tmp_path / "parallel", study_jobs=3
        ).run()
        assert records(serial) == records(parallel)
        assert [p.point_id for p in serial.frontier()] == [
            p.point_id for p in parallel.frontier()
        ]

    def test_worker_stats_aggregate_exactly(self, tmp_path):
        spec = tiny_spec()
        serial = StudyRunner(spec, study_dir=tmp_path / "serial").run()
        parallel = StudyRunner(
            spec, study_dir=tmp_path / "parallel", study_jobs=2
        ).run()
        assert parallel.stats.layers_simulated == serial.stats.layers_simulated
        assert parallel.stats.cache_misses == serial.stats.cache_misses
        # Warm reruns: every hit is attributed to the tier that served it,
        # whether the points ran in this process or on workers.
        warm_serial = StudyRunner(spec, study_dir=tmp_path / "serial").run()
        warm_parallel = StudyRunner(
            spec, study_dir=tmp_path / "parallel", study_jobs=2
        ).run()
        for stats in (warm_serial.stats, warm_parallel.stats):
            assert stats.cache_hits > 0
            assert stats.cache_hits == stats.memo_hits + stats.disk_hits
        assert warm_serial.stats.cache_hits == warm_parallel.stats.cache_hits

    def test_study_workers_gauge(self, tmp_path):
        spec = tiny_spec()
        StudyRunner(spec, study_dir=tmp_path / "serial").run()
        assert _metrics.STUDY_WORKERS.value() == 1
        StudyRunner(spec, study_dir=tmp_path / "parallel", study_jobs=2).run()
        assert _metrics.STUDY_WORKERS.value() == 2

    def test_point_spans_carry_worker_attribute(self, tmp_path):
        from repro.telemetry import tracing

        telemetry = tmp_path / "telemetry"
        tracing.configure(telemetry)
        try:
            StudyRunner(
                tiny_spec(), study_dir=tmp_path / "study", study_jobs=2
            ).run()
        finally:
            tracing.configure(None)
        spans = [
            json.loads(line)
            for path in telemetry.glob("*.jsonl")
            for line in path.read_text().splitlines()
        ]
        point_spans = [
            s for s in spans
            if s.get("type") == "span" and s.get("name") == "study.point"
        ]
        assert point_spans
        assert all("worker" in s.get("attributes", {}) for s in point_spans)
        assert any(s["attributes"]["worker"] >= 1 for s in point_spans)

    def test_broken_pool_falls_back_to_serial(self, tmp_path, monkeypatch):
        from repro.explore import executor as executor_module

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes in this sandbox")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", ExplodingPool
        )
        spec = tiny_spec()
        result = StudyRunner(
            spec, study_dir=tmp_path / "study", study_jobs=4
        ).run()
        assert len(result.points) == len(spec.expand())
        assert _metrics.STUDY_WORKERS.value() == 1

    def test_executor_rejects_bad_jobs(self):
        runner = StudyRunner(tiny_spec())
        with pytest.raises(ValueError, match="jobs"):
            StudyExecutor(runner, jobs=0)

    def test_runner_rejects_bad_study_jobs(self):
        with pytest.raises(ValueError, match="study_jobs"):
            StudyRunner(tiny_spec(), study_jobs=0)

    def test_plan_units_chunks_within_config_groups(self):
        groups = [list(range(8)), list(range(8, 12))]
        units = plan_units(groups, jobs=2)
        # Chunks never mix groups, cover every point exactly once, and
        # there are enough of them to feed both workers.
        flattened = [point for unit in units for point in unit]
        assert sorted(flattened) == list(range(12))
        assert len(units) >= 2
        for unit in units:
            assert unit == sorted(unit)
            assert max(unit) - min(unit) == len(unit) - 1

    @settings(max_examples=5, deadline=None)
    @given(
        study_jobs=st.integers(min_value=1, max_value=4),
        rows=st.lists(
            st.sampled_from([1, 2, 4]), min_size=1, max_size=2, unique=True
        ),
        staging=st.lists(
            st.sampled_from([2, 3]), min_size=1, max_size=2, unique=True
        ),
        scenario=st.sampled_from(["traced", "random:0.5"]),
    )
    def test_property_parallel_bit_identical(
        self, study_jobs, rows, staging, scenario
    ):
        spec = tiny_spec(
            name="prop",
            knobs={"rows": rows, "staging": staging},
            scenarios=[scenario],
        )
        serial = StudyRunner(spec).run()
        parallel = StudyRunner(spec, study_jobs=study_jobs).run()
        assert records(serial) == records(parallel)
        assert serial.stats.layers_simulated == parallel.stats.layers_simulated


# ----------------------------------------------------------------------
# append-only checkpoint segment


class KillAfter(Exception):
    pass


def run_and_kill(spec, study_dir, after_points, **kwargs):
    """Run a study but raise after ``after_points`` records land."""
    seen = []

    def progress(message):
        if message.startswith("["):
            seen.append(message)
            if len(seen) >= after_points:
                raise KillAfter(message)

    runner = StudyRunner(spec, study_dir=study_dir, **kwargs)
    with pytest.raises(KillAfter):
        runner.run(progress=progress)


class TestManifestSegment:
    def test_kill_mid_study_resumes_from_segment(self, tmp_path):
        spec = single_group_spec()
        study_dir = tmp_path / "study"
        run_and_kill(spec, study_dir, after_points=1)
        # The kill left an append-only segment and no compacted manifest.
        assert (study_dir / "manifest.segment.jsonl").exists()
        assert not (study_dir / "manifest.json").exists()

        resumed = StudyRunner(spec, study_dir=study_dir).run(resume=True)
        assert resumed.resumed_points == 1
        assert len(resumed.points) == 3
        # The whole single-config batch was simulated (and disk-cached)
        # before the kill, so the resume re-simulates zero layers.
        assert resumed.stats.layers_simulated == 0
        # Compaction folded everything back into the classic manifest.
        assert not (study_dir / "manifest.segment.jsonl").exists()
        manifest = json.loads((study_dir / "manifest.json").read_text())
        assert len(manifest["completed"]) == 3

        again = StudyRunner(spec, study_dir=study_dir).run(resume=True)
        assert again.resumed_points == 3
        assert again.stats.layers_simulated == 0
        assert records(again) == records(resumed)

    def test_truncated_segment_tail_is_tolerated(self, tmp_path):
        spec = single_group_spec()
        study_dir = tmp_path / "study"
        run_and_kill(spec, study_dir, after_points=2)
        segment = study_dir / "manifest.segment.jsonl"
        with segment.open("a") as handle:
            handle.write('{"kind": "point", "record": {"point_')  # torn write
        resumed = StudyRunner(spec, study_dir=study_dir).run(resume=True)
        assert resumed.resumed_points == 2
        assert len(resumed.points) == 3

    def test_segment_for_different_spec_refuses_resume(self, tmp_path):
        study_dir = tmp_path / "study"
        run_and_kill(single_group_spec(), study_dir, after_points=1)
        from repro.explore import StudyResumeError

        other = single_group_spec(seed=123)
        with pytest.raises(StudyResumeError, match="different spec"):
            StudyRunner(other, study_dir=study_dir).run(resume=True)

    def test_old_format_manifest_still_loads(self, tmp_path):
        # Pre-segment studies left only manifest.json; resume must work
        # without a segment file ever having existed.
        spec = tiny_spec()
        study_dir = tmp_path / "study"
        first = StudyRunner(spec, study_dir=study_dir).run()
        assert not (study_dir / "manifest.segment.jsonl").exists()
        resumed = StudyRunner(spec, study_dir=study_dir).run(resume=True)
        assert resumed.resumed_points == len(first.points)
        assert records(resumed) == records(first)

    def test_fresh_run_ignores_stale_segment(self, tmp_path):
        spec = single_group_spec()
        study_dir = tmp_path / "study"
        run_and_kill(spec, study_dir, after_points=1)
        # Without --resume the run starts over; the stale segment must
        # not leak records into (or corrupt) the fresh checkpoints.
        result = StudyRunner(spec, study_dir=study_dir).run()
        assert result.resumed_points == 0
        assert len(result.points) == 3
        assert not (study_dir / "manifest.segment.jsonl").exists()

    def _checkpoint_cost(self, tmp_path, name, rows, monkeypatch):
        spec = tiny_spec(name=name, knobs={"rows": rows}, scenarios=["traced"])
        counts = {"manifest_replaces": 0, "fsyncs": 0, "segment_bytes": 0}
        real_replace, real_fsync = os.replace, os.fsync

        def counting_replace(src, dst, *args, **kwargs):
            if str(dst).endswith("manifest.json"):
                counts["manifest_replaces"] += 1
            return real_replace(src, dst, *args, **kwargs)

        def counting_fsync(fd):
            counts["fsyncs"] += 1
            counts["segment_bytes"] = max(
                counts["segment_bytes"], os.fstat(fd).st_size
            )
            return real_fsync(fd)

        monkeypatch.setattr(os, "replace", counting_replace)
        monkeypatch.setattr(os, "fsync", counting_fsync)
        try:
            result = StudyRunner(spec, study_dir=tmp_path / name).run()
        finally:
            monkeypatch.undo()
        assert len(result.points) == len(rows)
        return counts

    def test_checkpoint_bytes_grow_linearly(self, tmp_path, monkeypatch):
        # The O(N^2) regression guard: a 30-point study writes one
        # fsync'd segment line per point plus a single final manifest
        # rewrite — not one full-manifest rewrite per point.
        small = self._checkpoint_cost(
            tmp_path, "n10", list(range(1, 11)), monkeypatch
        )
        large = self._checkpoint_cost(
            tmp_path, "n30", list(range(1, 31)), monkeypatch
        )
        assert small["manifest_replaces"] == 1
        assert large["manifest_replaces"] == 1
        assert small["fsyncs"] == 10 + 1   # one per point + header
        assert large["fsyncs"] == 30 + 1
        # 3x the points must cost ~3x the checkpoint bytes (quadratic
        # checkpointing would make this ratio ~9x).
        ratio = large["segment_bytes"] / small["segment_bytes"]
        assert ratio < 5.0


# ----------------------------------------------------------------------
# knob resolution and request plumbing


class TestStudyJobsKnob:
    def test_env_resolution(self):
        options = resolve_engine_options(environ={"REPRO_STUDY_JOBS": "3"})
        assert options.study_jobs == 3

    def test_argument_beats_env(self):
        options = resolve_engine_options(
            study_jobs=2, environ={"REPRO_STUDY_JOBS": "7"}
        )
        assert options.study_jobs == 2

    def test_default_is_serial(self):
        assert resolve_engine_options(environ={}).study_jobs is None

    def test_invalid_env_value(self):
        with pytest.raises(ValueError, match="REPRO_STUDY_JOBS"):
            resolve_engine_options(environ={"REPRO_STUDY_JOBS": "many"})

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="study_jobs"):
            resolve_engine_options(study_jobs=0, environ={})

    def test_as_dict_carries_study_jobs(self):
        options = resolve_engine_options(study_jobs=4, environ={})
        assert options.as_dict()["study_jobs"] == 4

    def test_explore_request_roundtrip(self):
        request = ExploreRequest(
            spec=tiny_spec().to_dict(), study_jobs=2
        )
        clone = ExploreRequest.from_dict(request.to_dict())
        assert clone.study_jobs == 2

    def test_explore_request_rejects_zero(self):
        with pytest.raises(SchemaError, match="study_jobs"):
            ExploreRequest(spec=tiny_spec().to_dict(), study_jobs=0)

    def test_sweep_request_rejects_zero(self):
        with pytest.raises(SchemaError, match="study_jobs"):
            SweepRequest(model="snli", study_jobs=0)

    def test_sweep_request_roundtrip(self):
        request = SweepRequest(model="snli", study_jobs=3)
        assert SweepRequest.from_dict(request.to_dict()).study_jobs == 3

    def test_session_threads_study_jobs(self):
        from repro.api.session import Session

        session = Session(environ={"REPRO_STUDY_JOBS": "2"})
        runner = session._study_runner(tiny_spec())
        assert runner.study_jobs == 2
        # A per-request override wins over the session default.
        runner = session._study_runner(tiny_spec(), study_jobs=3)
        assert runner.study_jobs == 3

    def test_session_envelope_absorbs_worker_stats(self):
        """The per-request engine delta counts worker-process simulation.

        Workers own private engines, so without absorbing their deltas a
        parallel study would report ``layers_simulated == 0`` — hiding
        all the work from the envelope and /v1/stats.
        """
        from repro.api.schema import ExploreRequest
        from repro.api.session import Session

        spec = tiny_spec().to_dict()
        serial = Session().submit(ExploreRequest(spec=spec))
        parallel = Session().submit(ExploreRequest(spec=spec, study_jobs=2))
        assert serial.engine["layers_simulated"] > 0
        assert (
            parallel.engine["layers_simulated"]
            == serial.engine["layers_simulated"]
        )
        serial_points = serial.result.study["points"]
        assert serial_points == parallel.result.study["points"]

    def test_cli_explore_study_jobs(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()))
        exit_code = main([
            "explore", str(spec_path),
            "--study-dir", str(tmp_path / "study"),
            "--study-jobs", "2",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        manifest = json.loads((tmp_path / "study" / "manifest.json").read_text())
        assert len(manifest["completed"]) == 4

"""Tests for serial study execution and append-only manifest segments.

Covers the one-engine-per-study contract (a direct :class:`StudyRunner`
shares datatype twins' compute parts exactly as a session does), warm
reruns and per-point spans, and the append-only JSONL checkpoint segment
(O(N) checkpoint bytes, kill-and-resume from the segment, truncation
tolerance, compaction).
"""

import json
import os

import pytest

from repro.api.schema import ExploreRequest
from repro.api.session import Session
from repro.explore import StudyRunner, StudySpec, run_study


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
# one engine per study


class TestOneEnginePerStudy:
    """Every path runs a study on one engine, so datatype twins share."""

    @pytest.fixture(scope="class")
    def twin_spec(self):
        # rows changes the compute key; datatype does not, so each
        # bfloat16 point is its fp32 twin's compute part re-finalized.
        return tiny_spec(
            name="twins", knobs={"rows": [1, 4], "datatype": ["fp32", "bfloat16"]}
        )

    @pytest.fixture(scope="class")
    def session_run(self, twin_spec):
        return Session().submit(ExploreRequest(spec=twin_spec.to_dict()))

    def test_direct_runner_simulates_what_a_session_simulates(
        self, twin_spec, session_run
    ):
        direct = StudyRunner(twin_spec).run()
        assert direct.stats.layers_simulated == session_run.engine["layers_simulated"]
        assert direct.stats.cache_hits == session_run.engine["cache_hits"]
        assert direct.stats.cache_hits == direct.stats.layers_simulated
        assert records(direct) == session_run.result.study["points"]

    def test_run_study_shares_twins(self, twin_spec, session_run, tmp_path):
        result = run_study(twin_spec, study_dir=tmp_path / "study")
        assert result.stats.layers_simulated == session_run.engine["layers_simulated"]
        assert result.stats.memo_hits == result.stats.cache_hits > 0

    def test_stats_count_one_run_on_a_shared_engine(self, twin_spec):
        runner = StudyRunner(twin_spec)
        first = runner.run()
        again = runner.run()
        assert first.stats.layers_simulated > 0
        assert again.stats.layers_simulated == 0
        assert again.stats.cache_hits == first.stats.layers_total
        assert records(again) == records(first)


# ----------------------------------------------------------------------
# serial execution (ids kept from the retired worker-pool tests)


class TestParallelExecution:
    def test_worker_stats_aggregate_exactly(self, tmp_path):
        """A warm rerun attributes every hit to the tier that served it."""
        spec = tiny_spec()
        StudyRunner(spec, study_dir=tmp_path / "serial").run()
        warm = StudyRunner(spec, study_dir=tmp_path / "serial").run()
        assert warm.stats.cache_hits > 0
        assert warm.stats.cache_hits == warm.stats.memo_hits + warm.stats.disk_hits

    def test_point_spans_carry_worker_attribute(self, tmp_path):
        """Each point emits one ``study.point`` span; none names a worker."""
        from repro.telemetry import tracing

        telemetry = tmp_path / "telemetry"
        tracing.configure(telemetry)
        try:
            result = StudyRunner(tiny_spec(), study_dir=tmp_path / "study").run()
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
        assert sorted(s["attributes"]["point_id"] for s in point_spans) == sorted(
            point.point_id for point in result.points
        )
        for span in point_spans:
            assert "speedup" in span["attributes"]
            assert "worker" not in span["attributes"]


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

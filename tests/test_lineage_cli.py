"""CLI + service tests for ``repro diff`` (:mod:`repro.lineage`).

Covers the acceptance criteria of the lineage PR end-to-end:

* a manifest diffed against itself exits 0 with an empty delta;
* an injected metric regression makes ``--fail-on regressed`` exit 1,
  with byte-identical golden table output (the style of
  ``test_cli_golden.py``: expected text rendered by a frozen copy of
  the report logic, compared character by character);
* mode auto-detection (study dirs, manifests, segments, BENCH files)
  and the ``POST /v1/diff`` service route;
* the jobs/explore integration: the same study submitted twice through
  the async job service yields manifests whose diff is empty.
"""

import copy
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.analysis.reporting import format_table
from repro.api.schema import DiffRequest, request_from_dict
from repro.api.session import Session
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

BASE_MANIFEST = {
    "version": 1,
    "spec_fingerprint": "fp-golden",
    "completed": {
        "p1": {
            "point_id": "p1", "workload": "snli", "scenario": "dense",
            "knobs": [["staging", 2]], "label": "snli/dense/staging=2",
            "config_label": "c",
            "metrics": {"speedup": 1.5, "energy_efficiency": 1.2,
                        "area_overhead": 0.1},
        },
        "p2": {
            "point_id": "p2", "workload": "snli", "scenario": "dense",
            "knobs": [["staging", 4]], "label": "snli/dense/staging=4",
            "config_label": "c",
            "metrics": {"speedup": 1.8, "energy_efficiency": 1.1,
                        "area_overhead": 0.2},
        },
    },
}


def _write_pair(tmp_path):
    """Baseline + candidate with one slowed point (p2's speedup drops)."""
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(BASE_MANIFEST))
    regressed = copy.deepcopy(BASE_MANIFEST)
    regressed["completed"]["p2"]["metrics"]["speedup"] = 1.0
    b.write_text(json.dumps(regressed))
    return a, b


def _run(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


# ----------------------------------------------------------------------
# golden output

def _golden_identity(path) -> str:
    lines = [
        f"Diff (study): {path} -> {path}",
        "Points: 2 matched, 0 added, 0 removed",
        "Metric deltas: 0 improved, 0 regressed, 0 changed (tolerance 0)",
        "No differences: the snapshots are identical.",
        "",
        "Frontier (speedup:max, energy_efficiency:max, area_overhead:min): "
        "2 held, 0 entered, 0 left",
    ]
    return "\n".join(lines) + "\n"


def _golden_regression(a, b) -> str:
    """The expected regression report, rendered by frozen logic."""
    table = format_table(
        "Changed metrics",
        ["point", "metric", "a", "b", "delta", "relative", "class"],
        [["snli/dense/staging=4", "speedup", "1.8", "1", "-0.8", "-44.4%",
          "regressed"]],
    )
    lines = [
        f"Diff (study): {a} -> {b}",
        "Points: 2 matched, 0 added, 0 removed",
        "Metric deltas: 0 improved, 1 regressed, 0 changed (tolerance 0)",
        "",
        table,
        "",
        "Frontier (speedup:max, energy_efficiency:max, area_overhead:min): "
        "1 held, 0 entered, 1 left",
        "  - p2 left the frontier",
        "",
        "Attribution (single axes explaining every change):",
        "  staging = 4",
        "FAIL: 2 regressed entries (--fail-on regressed)",
    ]
    return "\n".join(lines) + "\n"


class TestDiffCliGolden:
    def test_identity_diff_exits_zero_with_empty_delta(self, tmp_path):
        a, _ = _write_pair(tmp_path)
        code, output = _run(["diff", str(a), str(a)])
        assert code == 0
        assert output == _golden_identity(a)

    def test_injected_regression_fails_loudly_with_golden_table(
        self, tmp_path
    ):
        a, b = _write_pair(tmp_path)
        code, output = _run(
            ["diff", str(a), str(b), "--fail-on", "regressed"]
        )
        assert code == 1
        assert output == _golden_regression(a, b)

    def test_without_fail_on_a_regression_still_exits_zero(self, tmp_path):
        a, b = _write_pair(tmp_path)
        code, output = _run(["diff", str(a), str(b)])
        assert code == 0
        assert "regressed" in output

    def test_fail_on_changed_trips_on_any_movement(self, tmp_path):
        a, b = _write_pair(tmp_path)
        code, output = _run(["diff", str(a), str(b), "--fail-on", "changed"])
        assert code == 1
        assert "--fail-on changed" in output

    def test_tolerance_flag_absorbs_the_change(self, tmp_path):
        a, b = _write_pair(tmp_path)
        code, output = _run(
            ["diff", str(a), str(b), "--tolerance", "0.5",
             "--objectives", "energy_efficiency",
             "--fail-on", "changed"]
        )
        assert code == 0
        assert "identical" in output

    def test_ignore_flag_drops_the_noisy_metric(self, tmp_path):
        a, b = _write_pair(tmp_path)
        code, output = _run(
            ["diff", str(a), str(b), "--ignore", "speedup",
             "--objectives", "energy_efficiency", "--fail-on", "changed"]
        )
        assert code == 0


class TestDiffCliFormats:
    def test_json_format_emits_the_result_envelope(self, tmp_path):
        a, b = _write_pair(tmp_path)
        code, output = _run(["diff", str(a), str(b), "--format", "json"])
        assert code == 0
        envelope = json.loads(output)
        assert envelope["kind"] == "diff"
        assert envelope["result"]["summary"]["regressed"] == 1
        assert envelope["result"]["deltas"][0]["metric"] == "speedup"

    def test_markdown_format_renders_a_pipe_table(self, tmp_path):
        a, b = _write_pair(tmp_path)
        code, output = _run(["diff", str(a), str(b), "--format", "markdown"])
        assert code == 0
        assert "| point | metric |" in output
        assert "`p2` left the frontier" in output


class TestDiffCliDetection:
    def test_study_dir_and_segment_forms_diff_as_identical(self, tmp_path):
        study = tmp_path / "study"
        study.mkdir()
        (study / "manifest.json").write_text(json.dumps(BASE_MANIFEST))
        segment = tmp_path / "run.jsonl"
        lines = [json.dumps({"kind": "header", "version": 1,
                             "spec_fingerprint": "fp-golden"})]
        for record in BASE_MANIFEST["completed"].values():
            lines.append(json.dumps({"kind": "point", "record": record}))
        segment.write_text("\n".join(lines) + "\n")
        code, output = _run(
            ["diff", str(study), str(segment), "--fail-on", "changed"]
        )
        assert code == 0
        assert "identical" in output

    def test_bench_mode_autodetects_from_filenames(self):
        path = str(REPO_ROOT / "BENCH_telemetry.json")
        code, output = _run(["diff", path, path, "--fail-on", "regressed"])
        assert code == 0
        assert "Diff (bench)" in output
        assert "enabled_overhead_fraction" in output

    def test_bench_dir_against_itself_is_clean(self):
        code, output = _run(
            ["diff", str(REPO_ROOT), str(REPO_ROOT),
             "--mode", "bench", "--fail-on", "regressed"]
        )
        assert code == 0

    def test_injected_bench_regression_fails(self, tmp_path):
        committed = json.loads(
            (REPO_ROOT / "BENCH_telemetry.json").read_text()
        )
        fresh = copy.deepcopy(committed)
        fresh["enabled_overhead_fraction"] = 0.9
        fresh_path = tmp_path / "BENCH_telemetry.json"
        fresh_path.write_text(json.dumps(fresh))
        code, output = _run(
            ["diff", str(REPO_ROOT / "BENCH_telemetry.json"),
             str(fresh_path), "--fail-on", "regressed"]
        )
        assert code == 1
        assert "FAIL" in output

    def test_mixed_modes_are_a_usage_error(self, tmp_path):
        a, _ = _write_pair(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", str(a), str(REPO_ROOT / "BENCH_telemetry.json")])
        assert excinfo.value.code == 2

    def test_missing_path_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", str(tmp_path / "nope.json"),
                  str(tmp_path / "nope.json")])
        assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# schema + service surface

class TestDiffRequestSurface:
    def test_request_round_trips_through_the_wire_format(self):
        request = DiffRequest(
            a=BASE_MANIFEST, b=BASE_MANIFEST, tolerance=0.1,
            ignore=["speedup"], a_label="left", b_label="right",
        )
        payload = json.loads(json.dumps(request.to_dict()))
        assert request_from_dict(payload) == request

    def test_bad_mode_and_tolerance_are_schema_errors(self):
        from repro.api.schema import SchemaError

        with pytest.raises(SchemaError, match="mode"):
            DiffRequest(a={}, b={}, mode="nope")
        with pytest.raises(SchemaError, match="tolerance"):
            DiffRequest(a={}, b={}, tolerance=-1.0)

    def test_post_v1_diff_route_exists(self):
        from repro.api.service import POST_ROUTES

        assert POST_ROUTES.get("/v1/diff") == "diff"

    def test_session_diff_result_round_trips(self):
        session = Session()
        result = session.diff(BASE_MANIFEST, BASE_MANIFEST)
        assert result.kind == "diff"
        assert result.result.identical
        document = json.loads(json.dumps(result.to_dict()))
        assert document["result"]["summary"]["matched_points"] == 2

    def test_malformed_payload_is_a_schema_error(self):
        from repro.api.schema import SchemaError

        session = Session()
        with pytest.raises(SchemaError, match="DiffRequest.a"):
            session.diff({"junk": True}, BASE_MANIFEST)


# ----------------------------------------------------------------------
# jobs/explore integration: PR8 manifests + PR9 jobs + this PR's diff

class TestJobsExploreLineage:
    def test_same_study_twice_through_jobs_diffs_empty(self, tmp_path):
        """Submit one study twice via the async job store into two
        study dirs; the two manifests must diff as identical."""
        from repro.api.schema import ExploreRequest
        from repro.jobs import JobStore

        spec = {
            "name": "lineage-e2e", "workloads": ["snli"],
            "knobs": {"staging": [1, 2]}, "epochs": 1,
            "batches_per_epoch": 1, "batch_size": 4, "max_groups": 8,
        }
        store = JobStore(Session())
        try:
            job_ids = []
            for run in ("first", "second"):
                request = ExploreRequest(
                    spec=spec, study_dir=str(tmp_path / run)
                )
                job_ids.append(store.submit(request).job_id)
            for job_id in job_ids:
                record = store.wait(job_id, timeout=300)
                assert record.state == "succeeded", record.error
        finally:
            store.shutdown()
        for run in ("first", "second"):
            assert (tmp_path / run / "manifest.json").exists()
        code, output = _run(
            ["diff", str(tmp_path / "first"), str(tmp_path / "second"),
             "--fail-on", "changed"]
        )
        assert code == 0
        assert "identical" in output

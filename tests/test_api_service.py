"""Smoke tests for the ``repro serve`` batch service.

Starts a real :class:`ThreadingHTTPServer` on an ephemeral port and
drives it over HTTP: two sequential POSTs of the same 1-epoch snli
simulate must show the second request served from the shared session's
cache (the acceptance criterion of the batch-service design).
"""

import gc
import json
import threading
import urllib.error
import urllib.request
import warnings

import pytest

from repro import __version__
from repro.api.schema import SCHEMA_VERSION, ApiResult
from repro.api.service import create_server
from repro.api.session import Session

SIMULATE_BODY = {
    "model": "snli", "epochs": 1, "batches_per_epoch": 1,
    "batch_size": 4, "max_groups": 8,
}


@pytest.fixture(scope="module")
def server_url():
    server = create_server(port=0, session=Session())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.status, json.loads(response.read())


def _post(url: str, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=300) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get_raw(url: str):
    with urllib.request.urlopen(url, timeout=60) as response:
        return (
            response.status,
            response.read().decode("utf-8"),
            response.headers.get("Content-Type"),
        )


class TestServe:
    def test_health_reports_version_and_endpoints(self, server_url):
        status, payload = _get(server_url + "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["version"] == __version__
        assert payload["schema_version"] == SCHEMA_VERSION
        assert "/v1/simulate" in payload["endpoints"]
        assert "/v1/metrics" in payload["endpoints"]
        assert "snli" in payload["models"]

    def test_health_reports_uptime_and_telemetry_status(self, server_url):
        status, payload = _get(server_url + "/v1/health")
        assert status == 200
        assert payload["uptime_seconds"] >= 0.0
        telemetry = payload["telemetry"]
        assert telemetry["enabled"] is False
        assert telemetry["dir"] is None
        assert telemetry["spans_emitted"] >= 0

    def test_second_post_is_served_from_the_shared_cache(self, server_url):
        status, first = _post(server_url + "/v1/simulate", SIMULATE_BODY)
        assert status == 200
        assert first["engine"]["layers_simulated"] > 0

        status, second = _post(server_url + "/v1/simulate", SIMULATE_BODY)
        assert status == 200
        assert second["engine"]["layers_simulated"] == 0
        assert second["engine"]["cache_hits"] == first["engine"]["layers_simulated"]
        assert second["result"] == first["result"]

        # The session-level counters agree: nonzero hits in /v1/stats.
        status, stats = _get(server_url + "/v1/stats")
        assert status == 200
        assert stats["engine"]["cache_hits"] > 0
        assert stats["requests_served"] >= 2

        # Both responses parse back into validated envelopes.
        envelope = ApiResult.from_dict(second)
        assert envelope.result.model == "snli"

    def test_metrics_prometheus_exposition(self, server_url):
        _post(server_url + "/v1/simulate", SIMULATE_BODY)
        status, text, content_type = _get_raw(server_url + "/v1/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        lines = text.splitlines()
        assert "# TYPE repro_requests_total counter" in lines
        assert "# TYPE repro_request_seconds histogram" in lines
        assert any(
            line.startswith('repro_requests_total{kind="simulate"}')
            for line in lines
        )
        # Histogram series carry le buckets plus _sum/_count.
        assert any(
            line.startswith('repro_request_seconds_bucket{kind="simulate",le=')
            for line in lines
        )
        assert any(
            line.startswith('repro_request_seconds_count{kind="simulate"}')
            for line in lines
        )
        # The cache hierarchy is pre-seeded: every tier has a series.
        for tier in ("memo", "disk"):
            assert f'repro_cache_hits_total{{tier="{tier}"}}' in text
        assert 'tier="shared"' not in text

    def test_metrics_json_variant(self, server_url):
        _get(server_url + "/v1/health")
        status, payload = _get(server_url + "/v1/metrics?format=json")
        assert status == 200
        requests_total = payload["repro_requests_total"]
        assert requests_total["type"] == "counter"
        http = payload["repro_http_requests_total"]
        assert any(
            series["labels"] == {"method": "GET", "status": "200"}
            and series["value"] >= 1
            for series in http["values"]
        )

    def test_kind_is_implied_by_the_path(self, server_url):
        body = dict(SIMULATE_BODY)
        body["kind"] = "simulate"   # explicit tag also accepted
        status, payload = _post(server_url + "/v1/simulate", body)
        assert status == 200
        assert payload["kind"] == "simulate"

    def test_kind_mismatch_is_rejected(self, server_url):
        body = dict(SIMULATE_BODY)
        body["kind"] = "sweep"
        status, payload = _post(server_url + "/v1/simulate", body)
        assert status == 400
        assert payload["field"] == "kind"

    def test_invalid_request_returns_400_naming_the_field(self, server_url):
        status, payload = _post(server_url + "/v1/simulate", {"model": "nope"})
        assert status == 400
        assert payload["field"] == "SimulateRequest.model"
        assert "unknown workload" in payload["error"]

    def test_invalid_json_returns_400(self, server_url):
        request = urllib.request.Request(
            server_url + "/v1/simulate", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        with excinfo.value as error:
            assert error.code == 400

    def test_unknown_path_returns_404_with_routes(self, server_url):
        status, payload = _post(server_url + "/v1/teleport", SIMULATE_BODY)
        assert status == 404
        assert "/v1/simulate" in payload["endpoints"]

    def test_client_study_dir_is_refused_without_a_study_root(self, server_url):
        status, payload = _post(server_url + "/v1/explore", {
            "spec": {"name": "t", "workloads": ["snli"],
                     "knobs": {"staging": [2]}, "epochs": 1,
                     "batches_per_epoch": 1, "batch_size": 4, "max_groups": 8},
            "study_dir": "/tmp/attacker-chosen-path",
        })
        assert status == 403
        assert payload["field"] == "study_dir"
        assert "--study-root" in payload["error"]

    @pytest.mark.parametrize("path, body, field", [
        ("/v1/sweep", {"model": "snli"}, "SweepRequest.study_jobs"),
        ("/v1/explore", {"spec": {"name": "t", "workloads": ["snli"]}},
         "ExploreRequest.study_jobs"),
    ], ids=["sweep", "explore"])
    def test_removed_study_jobs_field_is_400(self, server_url, path, body, field):
        status, payload = _post(server_url + path, dict(body, study_jobs=2))
        assert status == 400
        assert payload["field"] == field

    def test_sweep_endpoint_runs_a_study(self, server_url):
        status, payload = _post(server_url + "/v1/sweep", {
            "model": "snli", "knob": "staging", "values": [2, 3],
            "epochs": 1, "batches_per_epoch": 1, "batch_size": 4,
            "max_groups": 8,
        })
        assert status == 200
        assert payload["kind"] == "sweep"
        assert len(payload["result"]["study"]["points"]) == 2


class TestAccessLog:
    def _serve(self, access_log=None):
        server = create_server(port=0, session=Session(),
                               access_log=access_log)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://{server.server_address[0]}:{server.server_address[1]}"
        return server, thread, url

    def test_access_log_writes_structured_records(self, tmp_path):
        log_path = tmp_path / "logs" / "access.jsonl"
        server, thread, url = self._serve(access_log=log_path)
        try:
            _get(url + "/v1/health")
            _post(url + "/v1/simulate", SIMULATE_BODY)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        records = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        assert [(r["method"], r["path"], r["status"]) for r in records] == [
            ("GET", "/v1/health", 200),
            ("POST", "/v1/simulate", 200),
        ]
        for record in records:
            assert record["duration_ms"] >= 0.0
            assert record["response_bytes"] > 0
            assert record["client"]
        assert records[1]["request_bytes"] > 0

    def test_unopenable_access_log_leaks_no_socket_and_no_job_thread(
        self, tmp_path
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        before = set(threading.enumerate())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                create_server(port=0, session=Session(),
                              access_log=blocker / "access.jsonl")
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []
        workers = [t for t in threading.enumerate()
                   if t.name == "job-worker" and t not in before]
        for worker in workers:
            worker.join(timeout=5)
        assert not any(worker.is_alive() for worker in workers)

    def test_access_log_is_off_by_default(self, server_url, tmp_path):
        # The module fixture's server has no access_log: requests succeed
        # and nothing is written anywhere (the handle stays None).
        status, _ = _get(server_url + "/v1/health")
        assert status == 200
        assert list(tmp_path.iterdir()) == []


class TestStudyRoot:
    def test_study_dir_under_the_root_is_allowed_and_escapes_are_not(self, tmp_path):
        root = tmp_path / "studies"
        root.mkdir()
        server = create_server(port=0, session=Session(),
                               study_root=root)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://{server.server_address[0]}:{server.server_address[1]}"
            spec = {"name": "t", "workloads": ["snli"],
                    "knobs": {"staging": [2]}, "epochs": 1,
                    "batches_per_epoch": 1, "batch_size": 4, "max_groups": 8}

            status, payload = _post(url + "/v1/explore", {
                "spec": spec, "study_dir": "mine",   # relative: under the root
            })
            assert status == 200
            assert (root / "mine" / "manifest.json").exists()

            status, payload = _post(url + "/v1/explore", {
                "spec": spec, "study_dir": "../outside",
            })
            assert status == 403
            assert payload["field"] == "study_dir"
            assert not (tmp_path / "outside").exists()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

"""End-to-end tests for the asynchronous job API of ``repro serve``.

Real :class:`ThreadingHTTPServer` on an ephemeral port, real
:class:`~repro.api.session.Session` underneath: jobs are submitted,
watched over Server-Sent Events, cancelled mid-study and resumed from
the on-disk segment manifest — the full backend story the subsystem
exists for.  Also home of the strict-HTTP-semantics regressions
(404/405/413) and the graceful-shutdown tests, including a subprocess
killed with SIGTERM.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro.api.session as session_module
from repro.api.schema import JobRecord, JobResult
from repro.api.service import ApiServer, create_server
from repro.api.session import Session
from repro.cli import main
from repro.jobs import UnknownJob
from repro.telemetry.schema import validate_file

SIMULATE = {
    "kind": "simulate", "model": "snli", "epochs": 1,
    "batches_per_epoch": 1, "batch_size": 4, "max_groups": 8,
}

SPEC = {
    "name": "jobs-e2e", "workloads": ["snli"],
    "knobs": {"staging": [1, 2]}, "epochs": 1,
    "batches_per_epoch": 1, "batch_size": 4, "max_groups": 8,
}


def _start(**kwargs):
    kwargs.setdefault("session", Session())
    server = create_server(port=0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, f"http://{host}:{port}"


def _request(url, method="GET", payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def _read_sse(url, on_event=None, timeout=300):
    """Parse one SSE stream to completion; returns the event list.

    ``on_event(event)`` fires per parsed event (e.g. to cancel the job
    mid-stream); events carry their ``event:`` type under ``"_event"``.
    """
    events = []
    request = urllib.request.Request(url)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        assert response.headers["Content-Type"] == "text/event-stream"
        event_type, data = None, None
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue
            if line.startswith("event: "):
                event_type = line[len("event: "):]
            elif line.startswith("data: "):
                data = line[len("data: "):]
            elif not line and event_type is not None:
                event = json.loads(data)
                event["_event"] = event_type
                events.append(event)
                if on_event is not None:
                    on_event(event)
                event_type, data = None, None
    return events


def _wait_terminal(base, job_id, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, record, _ = _request(f"{base}/v1/jobs/{job_id}")
        assert status == 200
        if record["state"] in ("succeeded", "failed", "cancelled"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestJobLifecycle:
    @pytest.fixture(scope="class")
    def service(self):
        server, thread, base = _start(session=Session())
        yield base
        server.shutdown_gracefully(drain_seconds=5.0)
        thread.join(timeout=5.0)

    def test_submit_returns_202_with_a_valid_record(self, service):
        status, record, _ = _request(
            service + "/v1/jobs", "POST", SIMULATE)
        assert status == 202
        parsed = JobRecord.from_dict(record)
        assert parsed.state in ("queued", "running")
        assert parsed.request_kind == "simulate"
        assert parsed.request["model"] == "snli"
        _wait_terminal(service, parsed.job_id)

    def test_async_result_matches_the_blocking_route(self, service):
        body = dict(SIMULATE)
        del body["kind"]
        status, blocking, _ = _request(
            service + "/v1/simulate", "POST", body)
        assert status == 200
        status, record, _ = _request(service + "/v1/jobs", "POST", SIMULATE)
        assert status == 202
        final = _wait_terminal(service, record["job_id"])
        assert final["state"] == "succeeded"
        status, result, _ = _request(
            f"{service}/v1/jobs/{record['job_id']}/result")
        assert status == 200
        parsed = JobResult.from_dict(result)
        # The simulation payload is deterministic, so the asynchronous
        # path must produce exactly what the blocking route returned
        # (the engine delta differs: the second run is pure cache hits).
        assert parsed.result["kind"] == "simulate"
        assert parsed.result["result"] == blocking["result"]

    def test_sse_stream_carries_states_and_progress(self, service):
        status, record, _ = _request(service + "/v1/jobs", "POST", SIMULATE)
        events = _read_sse(f"{service}/v1/jobs/{record['job_id']}/events")
        kinds = [event["_event"] for event in events]
        assert kinds[0] == "state" and events[0]["state"] == "queued"
        assert kinds[-1] == "state" and events[-1]["state"] == "succeeded"
        assert "progress" in kinds
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs) == list(range(1, len(seqs) + 1))

    def test_sse_since_resumes_after_a_sequence_number(self, service):
        status, record, _ = _request(service + "/v1/jobs", "POST", SIMULATE)
        job_id = record["job_id"]
        everything = _read_sse(f"{service}/v1/jobs/{job_id}/events")
        cut = everything[1]["seq"]
        tail = _read_sse(f"{service}/v1/jobs/{job_id}/events?since={cut}")
        assert [e["seq"] for e in tail] == [
            e["seq"] for e in everything if e["seq"] > cut
        ]

    def test_explore_job_streams_per_point_progress(self, service):
        status, record, _ = _request(
            service + "/v1/jobs", "POST", {"kind": "explore", "spec": SPEC})
        assert status == 202
        events = _read_sse(f"{service}/v1/jobs/{record['job_id']}/events")
        points = [e for e in events if e["_event"] == "point"]
        assert len(points) == 2
        assert [(p["done"], p["total"]) for p in points] == [(1, 2), (2, 2)]
        assert all(p["workload"] == "snli" for p in points)
        assert all(p["speedup"] > 0 for p in points)
        assert events[-1]["state"] == "succeeded"

    def test_jobs_list_filters_by_state(self, service):
        status, record, _ = _request(service + "/v1/jobs", "POST", SIMULATE)
        _wait_terminal(service, record["job_id"])
        status, listing, _ = _request(service + "/v1/jobs?state=succeeded")
        assert status == 200
        assert record["job_id"] in {job["job_id"] for job in listing["jobs"]}
        assert all(job["state"] == "succeeded" for job in listing["jobs"])
        assert "workers" not in listing

    def test_result_of_unfinished_job_is_409(self, service):
        status, record, _ = _request(service + "/v1/jobs", "POST", SIMULATE)
        status, payload, _ = _request(
            f"{service}/v1/jobs/{record['job_id']}/result")
        if status == 409:   # still queued/running when we asked
            assert payload["state"] in ("queued", "running")
        else:               # or it already finished: both are correct
            assert status == 200
        _wait_terminal(service, record["job_id"])

    def test_health_reports_the_job_store(self, service):
        status, health, _ = _request(service + "/v1/health")
        assert status == 200
        assert "workers" not in health["jobs"]
        assert health["jobs"]["accepting"] is True
        assert "/v1/jobs" in health["endpoints"]

    def test_jobs_list_cli_title_names_no_worker_count(self, service, capsys):
        assert main(["jobs", "--url", service, "list"]) == 0
        title = capsys.readouterr().out.splitlines()[0]
        assert title.startswith(f"Jobs on {service} (queue depth ")
        assert "worker" not in title


class TestOneJobThread:
    def test_job_behind_a_running_one_reads_queued_and_cancels_at_once(
        self, monkeypatch
    ):
        """On a default server the job behind a running one stays
        ``queued`` (no second thread claims it only to wait on the
        session lock), so its cancel lands at once."""
        gate, training = threading.Event(), threading.Event()
        train = session_module.trace_workload

        def gated_train(*args, **kwargs):
            training.set()
            assert gate.wait(timeout=60.0)
            return train(*args, **kwargs)

        # Bound before the session is built: its engine trains through it.
        monkeypatch.setattr(session_module, "trace_workload", gated_train)
        server, thread, base = _start(session=Session())
        try:
            status, first, _ = _request(base + "/v1/jobs", "POST", SIMULATE)
            assert status == 202
            assert training.wait(timeout=60.0)   # first job holds the lock
            status, second, _ = _request(base + "/v1/jobs", "POST", SIMULATE)
            assert status == 202
            # Time for another thread, were there one, to claim the job.
            time.sleep(0.2)
            status, record, _ = _request(f"{base}/v1/jobs/{second['job_id']}")
            assert record["state"] == "queued"
            assert record["started_s"] is None
            status, record, _ = _request(
                f"{base}/v1/jobs/{second['job_id']}/cancel", "POST")
            assert status == 200
            assert record["state"] == "cancelled"
            gate.set()
            final = _wait_terminal(base, first["job_id"])
            assert final["state"] == "succeeded"
            assert server.session.requests_served == 1
        finally:
            gate.set()
            server.shutdown_gracefully(drain_seconds=5.0)
            thread.join(timeout=5.0)

    def test_create_server_takes_no_worker_count(self):
        with pytest.raises(TypeError, match="job_workers"):
            create_server(port=0, session=Session(), job_workers=2)


class TestCancelAndResume:
    def test_cancel_mid_study_then_resume_from_the_manifest(self, tmp_path):
        """The subsystem's acceptance story: cancel an explore job at a
        point boundary, then resume it (twice) from the segment manifest
        — the second resume re-simulates zero layers."""
        spec = dict(SPEC, name="resume-e2e",
                    knobs={"staging": [1, 2, 3], "rows": [2, 4]})
        body = {"kind": "explore", "spec": spec, "study_dir": "study",
                "resume": False}

        server, thread, base = _start(
            session=Session(), study_root=tmp_path)
        try:
            status, record, _ = _request(base + "/v1/jobs", "POST", body)
            assert status == 202
            job_id = record["job_id"]
            cancelled_after = []

            def cancel_at_first_point(event):
                if event["_event"] == "point" and not cancelled_after:
                    cancelled_after.append(event["done"])
                    _request(f"{base}/v1/jobs/{job_id}/cancel", "POST")

            events = _read_sse(f"{base}/v1/jobs/{job_id}/events",
                               on_event=cancel_at_first_point)
            final = _wait_terminal(base, job_id)
            assert final["state"] == "cancelled"
            assert final["cancel_requested"] is True
            completed = [e for e in events if e["_event"] == "point"]
            assert 1 <= len(completed) < 6
            status, result, _ = _request(f"{base}/v1/jobs/{job_id}/result")
            assert status == 200
            assert result["state"] == "cancelled"
            assert result["result"] is None
        finally:
            server.shutdown_gracefully(drain_seconds=5.0)
            thread.join(timeout=5.0)

        # The cancellation raise lands at the event boundary *after* a
        # point is checkpointed, so the manifest may hold one more point
        # than the stream announced.
        low, high = len(completed), len(completed) + 1
        # A fresh process would see exactly this: a brand-new session
        # resuming the same study directory.
        server, thread, base = _start(
            session=Session(), study_root=tmp_path)
        try:
            status, record, _ = _request(
                base + "/v1/jobs", "POST", dict(body, resume=True))
            assert status == 202
            final = _wait_terminal(base, record["job_id"])
            assert final["state"] == "succeeded"
            status, result, _ = _request(
                f"{base}/v1/jobs/{record['job_id']}/result")
            study = result["result"]["result"]["study"]
            assert low <= study["resumed_points"] <= high
            assert len(study["points"]) == 6

            # Resume once more on the now-complete manifest: every point
            # restores, the engine simulates zero layers.
            status, record, _ = _request(
                base + "/v1/jobs", "POST", dict(body, resume=True))
            final = _wait_terminal(base, record["job_id"])
            assert final["state"] == "succeeded"
            status, result, _ = _request(
                f"{base}/v1/jobs/{record['job_id']}/result")
            study = result["result"]["result"]["study"]
            assert study["resumed_points"] == 6
            assert study["engine"]["layers_simulated"] == 0
        finally:
            server.shutdown_gracefully(drain_seconds=5.0)
            thread.join(timeout=5.0)


class TestHttpSemantics:
    @pytest.fixture(scope="class")
    def service(self):
        server, thread, base = _start(session=Session(), max_body_mb=0.001)
        yield base
        server.shutdown_gracefully(drain_seconds=5.0)
        thread.join(timeout=5.0)

    def test_unknown_path_is_404_with_the_route_list(self, service):
        status, payload, _ = _request(service + "/v1/teleport")
        assert status == 404
        assert "/v1/jobs" in payload["endpoints"]
        assert "/v1/simulate" in payload["endpoints"]

    def test_wrong_method_is_405_with_allow_header(self, service):
        status, payload, headers = _request(service + "/v1/simulate")
        assert status == 405
        assert headers["Allow"] == "POST"
        status, payload, headers = _request(
            service + "/v1/health", "POST", {})
        assert status == 405
        assert headers["Allow"] == "GET"
        status, payload, headers = _request(
            service + "/v1/jobs/zzz/cancel")
        assert status == 405
        assert headers["Allow"] == "POST"

    def test_oversized_body_is_413(self, service):
        huge = dict(SIMULATE, model="x" * 4096)
        status, payload, _ = _request(service + "/v1/jobs", "POST", huge)
        assert status == 413
        assert "max-body-mb" in payload["error"]

    def test_job_submission_requires_an_explicit_kind(self, service):
        status, payload, _ = _request(
            service + "/v1/jobs", "POST", {"model": "snli"})
        assert status == 400
        assert payload["field"] == "request.kind"

    def test_removed_study_jobs_field_is_400(self, service):
        status, payload, _ = _request(
            service + "/v1/jobs", "POST",
            {"kind": "sweep", "model": "snli", "study_jobs": 2})
        assert status == 400
        assert payload["field"] == "SweepRequest.study_jobs"

    def test_job_evicted_between_store_calls_is_404(self, monkeypatch):
        """An ``UnknownJob`` from any store call answers 404 instead of
        dropping the connection, e.g. a job evicted after the handler's
        ``get`` succeeded."""
        server, thread, base = _start(session=Session())

        def evicted(job_id):
            raise UnknownJob(job_id)

        try:
            status, record, _ = _request(base + "/v1/jobs", "POST", SIMULATE)
            job_id = record["job_id"]
            _wait_terminal(base, job_id)
            monkeypatch.setattr(server.jobs, "result", evicted)
            status, payload, _ = _request(f"{base}/v1/jobs/{job_id}/result")
            assert status == 404
            assert job_id in payload["error"]
        finally:
            server.shutdown_gracefully(drain_seconds=5.0)
            thread.join(timeout=5.0)

    def test_submit_answers_the_state_it_queued(self, monkeypatch):
        """The 202 body is the record ``submit`` took while queueing the
        job: a job that finishes before any later store call of the
        handler still answers ``queued``."""
        server, thread, base = _start(session=Session())
        store = server.jobs
        monkeypatch.setattr(
            store, "get", lambda job_id: store.wait(job_id, timeout=120))
        try:
            status, record, _ = _request(base + "/v1/jobs", "POST", SIMULATE)
            assert status == 202
            assert record["state"] == "queued"
            assert store.wait(record["job_id"], timeout=120).state == "succeeded"
        finally:
            server.shutdown_gracefully(drain_seconds=5.0)
            thread.join(timeout=5.0)

    def test_unknown_job_routes_are_404(self, service):
        for path in ("/v1/jobs/nope", "/v1/jobs/nope/result",
                     "/v1/jobs/nope/events"):
            status, payload, _ = _request(service + path)
            assert status == 404, path
        status, payload, _ = _request(
            service + "/v1/jobs/nope/cancel", "POST")
        assert status == 404

    def test_bad_query_parameters_are_400(self, service):
        status, payload, _ = _request(service + "/v1/jobs?state=zombie")
        assert status == 400
        status, record, _ = _request(
            service + "/v1/jobs", "POST",
            {"kind": "simulate", "model": "snli", "epochs": 1,
             "batches_per_epoch": 1, "batch_size": 4, "max_groups": 8})
        assert status == 202
        status, payload, _ = _request(
            f"{service}/v1/jobs/{record['job_id']}/events?since=later")
        assert status == 400
        assert payload["field"] == "since"

    def test_invalid_max_body_mb_is_rejected(self, monkeypatch):
        """Refused before the socket is bound, so none is leaked, and at
        parse time on the command line."""
        binds = []
        monkeypatch.setattr(
            ApiServer, "server_bind", lambda self: binds.append(self))
        for value in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="max_body_mb"):
                create_server(port=0, session=Session(), max_body_mb=value)
        assert binds == []
        with pytest.raises(SystemExit) as exit_:
            main(["serve", "--port", "0", "--max-body-mb", "inf"])
        assert exit_.value.code == 2

    def test_bind_failure_surfaces_the_oserror(self, service):
        # socketserver calls server_close before __init__ finishes when
        # the bind fails; the teardown must not mask the OSError.
        port = int(service.rsplit(":", 1)[1])
        with pytest.raises(OSError):
            create_server(port=port, session=Session())


class TestHttpStress:
    def test_concurrent_clients_sum_exactly(self):
        """Satellite: N threads submit/poll/cancel over HTTP; nothing is
        lost, nothing runs twice, and the server-side counters add up."""
        server, thread, base = _start(session=Session())
        clients, per_client = 6, 3
        results, errors = [], []
        lock = threading.Lock()
        _, stats_before, _ = _request(base + "/v1/stats")

        def client(index):
            try:
                for i in range(per_client):
                    status, record, _ = _request(
                        base + "/v1/jobs", "POST", SIMULATE)
                    assert status == 202
                    if (index + i) % 4 == 3:
                        _request(f"{base}/v1/jobs/{record['job_id']}/cancel",
                                 "POST")
                    final = _wait_terminal(base, record["job_id"])
                    with lock:
                        results.append(final)
            except Exception as exc:   # noqa: BLE001 - surfaced below
                with lock:
                    errors.append(exc)

        try:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(clients)]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=300.0)
            assert errors == []
            total = clients * per_client
            assert len(results) == total
            assert len({record["job_id"] for record in results}) == total
            states = [record["state"] for record in results]
            assert all(s in ("succeeded", "cancelled") for s in states)
            succeeded = states.count("succeeded")
            # Exactly one session execution per non-cancelled job.
            _, stats_after, _ = _request(base + "/v1/stats")
            assert stats_after["requests_served"] \
                - stats_before["requests_served"] == succeeded
            # The metrics registry tells the same story.
            _, metrics, _ = _request(base + "/v1/metrics?format=json")
            by_state = {v["labels"]["state"]: v["value"]
                        for v in metrics["repro_jobs_total"]["values"]}
        finally:
            server.shutdown_gracefully(drain_seconds=10.0)
            thread.join(timeout=5.0)
        assert by_state["succeeded"] >= succeeded
        assert by_state["cancelled"] >= states.count("cancelled")


class TestGracefulShutdown:
    class _GateSession:
        """A session whose one job blocks until the test opens the gate,
        pinning the store's worker so the job behind it stays queued."""

        def __init__(self):
            self.gate = threading.Event()
            self.started_at = time.time()

        def stats(self):
            return {}

        def submit(self, request, progress=None, on_event=None):
            assert self.gate.wait(timeout=60.0)

            class _Result:
                @staticmethod
                def to_dict():
                    return {"kind": "simulate"}

            return _Result()

    def test_shutdown_cancels_queued_drains_running_and_closes_logs(
        self, tmp_path
    ):
        audit = tmp_path / "audit.jsonl"
        access = tmp_path / "access.jsonl"
        session = self._GateSession()
        server, thread, base = _start(
            session=session, audit_log=audit, access_log=access)
        status, first, _ = _request(base + "/v1/jobs", "POST", SIMULATE)
        status, second, _ = _request(base + "/v1/jobs", "POST", SIMULATE)
        # Open the gate only once the store has stopped intake — by then
        # the queued job is already cancelled (same critical section),
        # so the running job drains and the queued one never runs.
        def open_after_intake_stops():
            while server.jobs.describe()["accepting"]:
                time.sleep(0.02)
            session.gate.set()

        threading.Thread(target=open_after_intake_stops, daemon=True).start()
        server.shutdown_gracefully(drain_seconds=60.0)
        thread.join(timeout=10.0)
        # Both jobs reached a terminal state before the server exited:
        # the running one drained, the queued one was cancelled.
        states = {
            record.job_id: record.state for record in server.jobs.list()
        }
        assert set(states) == {first["job_id"], second["job_id"]}
        assert states[first["job_id"]] == "succeeded"
        assert states[second["job_id"]] == "cancelled"
        # Both logs were flushed and validate: 3 records for the drained
        # job (submitted/running/succeeded), 2 for the cancelled one.
        counts = validate_file(audit)
        assert counts["job"] == 5
        access_lines = [json.loads(line)
                        for line in access.read_text().splitlines()]
        assert {line["path"] for line in access_lines} == {"/v1/jobs"}
        # The socket is closed: new submissions cannot connect.
        with pytest.raises(urllib.error.URLError):
            _request(base + "/v1/jobs", "POST", SIMULATE)

    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        """Full-process integration: ``repro serve`` under SIGTERM."""
        audit = tmp_path / "audit.jsonl"
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        env.pop("REPRO_TELEMETRY_DIR", None)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--drain-seconds", "30", "--audit-log", str(audit)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "serving on http://" in banner
            base = banner.split("serving on ")[1].split()[0].rstrip(",")
            status, record, _ = _request(base + "/v1/jobs", "POST", SIMULATE)
            assert status == 202
            _wait_terminal(base, record["job_id"])
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)
        assert process.returncode == 0
        assert "SIGTERM" in output
        assert "draining jobs" in output
        counts = validate_file(audit)
        assert counts["job"] >= 3

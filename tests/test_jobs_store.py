"""Unit tests for the asynchronous job store (:mod:`repro.jobs`).

Everything here runs against a stub session — lifecycle, events,
cooperative cancellation, TTL eviction, exactly-once execution, the
concurrency stress test and graceful shutdown are store properties, not
simulation properties.  The end-to-end paths through a real
:class:`~repro.api.session.Session` live in ``test_jobs_service.py``.
"""

import json
import sys
import threading
import time

import pytest

from repro.api.schema import JobRecord, JobResult, SimulateRequest
from repro.jobs import JobCancelled, JobStore, JobStoreClosed, UnknownJob
from repro.telemetry import metrics as _metrics
from repro.telemetry.schema import validate_file


class _StubResult:
    def __init__(self, payload):
        self.payload = payload

    def to_dict(self):
        return dict(self.payload)


class _StubSession:
    """Scriptable ``submit``; records every execution for once-only checks."""

    def __init__(self, behaviour=None):
        #: behaviour(request, progress, on_event) -> payload dict
        self.behaviour = behaviour
        self.lock = threading.Lock()
        self.executions = []

    def submit(self, request, progress=None, on_event=None):
        with self.lock:
            self.executions.append(request)
        if self.behaviour is not None:
            payload = self.behaviour(request, progress, on_event)
        else:
            if progress:
                progress("working")
            payload = {"kind": "stub", "model": request.model}
        return _StubResult(payload)


def _request(model="snli"):
    return SimulateRequest(model=model, epochs=1, batches_per_epoch=1,
                           batch_size=4, max_groups=8)


@pytest.fixture
def store():
    store = JobStore(_StubSession())
    yield store
    store.shutdown(drain_seconds=2.0)


class TestLifecycle:
    def test_submit_runs_and_succeeds(self, store):
        submitted = store.submit(_request())
        assert isinstance(submitted, JobRecord)
        assert submitted.state == "queued"
        record = store.wait(submitted.job_id, timeout=10.0)
        assert isinstance(record, JobRecord)
        assert record.state == "succeeded"
        assert record.request_kind == "simulate"
        assert record.started_s is not None
        assert record.finished_s is not None
        assert record.error is None
        assert record.request["model"] == "snli"

    def test_event_sequence_is_ordered_and_complete(self, store):
        job_id = store.submit(_request()).job_id
        store.wait(job_id, timeout=10.0)
        events, state = store.events_after(job_id, 0)
        assert state == "succeeded"
        assert [event["type"] for event in events] == [
            "state", "state", "progress", "state",
        ]
        assert [event["seq"] for event in events] == [1, 2, 3, 4]
        assert [e["state"] for e in events if e["type"] == "state"] == [
            "queued", "running", "succeeded",
        ]

    def test_result_returns_the_session_payload(self, store):
        job_id = store.submit(_request()).job_id
        store.wait(job_id, timeout=10.0)
        result = store.result(job_id)
        assert isinstance(result, JobResult)
        assert result.state == "succeeded"
        assert result.result == {"kind": "stub", "model": "snli"}
        # And the envelope round-trips through the schema layer.
        assert JobResult.from_dict(result.to_dict()) == result

    def test_result_before_terminal_state_is_an_error(self):
        gate = threading.Event()

        def behaviour(request, progress, on_event):
            gate.wait(timeout=10.0)
            return {}

        store = JobStore(_StubSession(behaviour))
        try:
            job_id = store.submit(_request()).job_id
            with pytest.raises(ValueError, match="terminal"):
                store.result(job_id)
        finally:
            gate.set()
            store.shutdown(drain_seconds=2.0)

    def test_failures_are_captured_not_raised(self):
        def behaviour(request, progress, on_event):
            raise RuntimeError("engine exploded")

        store = JobStore(_StubSession(behaviour))
        try:
            job_id = store.submit(_request()).job_id
            record = store.wait(job_id, timeout=10.0)
            assert record.state == "failed"
            assert record.error == "RuntimeError: engine exploded"
            result = store.result(job_id)
            assert result.result is None
            assert result.error == record.error
        finally:
            store.shutdown(drain_seconds=2.0)

    def test_unknown_job_everywhere(self, store):
        for call in (store.get, store.result, store.cancel,
                     lambda job_id: store.events_after(job_id, 0)):
            with pytest.raises(UnknownJob, match="deadbeef"):
                call("deadbeef")

    def test_non_request_submissions_are_rejected(self, store):
        with pytest.raises(TypeError, match="unsupported request type"):
            store.submit({"kind": "simulate"})

    def test_constructor_validates_knobs(self):
        with pytest.raises(ValueError, match="retention"):
            JobStore(_StubSession(), retention_seconds=-1.0)


class TestOneWorker:
    def test_store_starts_exactly_one_job_worker_thread(self):
        before = set(threading.enumerate())
        store = JobStore(_StubSession())
        try:
            started = set(threading.enumerate()) - before
            assert [thread.name for thread in started] == ["job-worker"]
        finally:
            store.shutdown(drain_seconds=2.0)
        assert not any(thread.is_alive() for thread in started)

    def test_worker_count_argument_is_gone(self):
        with pytest.raises(TypeError, match="workers"):
            JobStore(_StubSession(), workers=2)

    def test_job_behind_a_running_one_stays_queued_and_cancels_at_once(self):
        gate = threading.Event()
        started = threading.Event()

        def behaviour(request, progress, on_event):
            if request.model == "resnet50":
                started.set()
                gate.wait(timeout=10.0)
            return {}

        session = _StubSession(behaviour)
        store = JobStore(session)
        try:
            blocker = store.submit(_request("resnet50")).job_id
            assert started.wait(timeout=10.0)
            behind = store.submit(_request()).job_id
            # Time for another thread, were there one, to claim the job.
            time.sleep(0.2)
            record = store.get(behind)
            assert record.state == "queued"
            assert record.started_s is None
            assert store.cancel(behind).state == "cancelled"
            gate.set()
            assert store.wait(blocker, timeout=10.0).state == "succeeded"
            assert [r.model for r in session.executions] == ["resnet50"]
        finally:
            gate.set()
            store.shutdown(drain_seconds=2.0)

    def test_jobs_run_in_submission_order(self):
        gate = threading.Event()
        started = threading.Event()

        def behaviour(request, progress, on_event):
            if request.model == "resnet50":
                started.set()
                gate.wait(timeout=10.0)
            return {}

        session = _StubSession(behaviour)
        store = JobStore(session)
        try:
            store.submit(_request("resnet50"))
            assert started.wait(timeout=10.0)
            models = ["alexnet", "snli", "densenet121", "squeezenet"]
            job_ids = [store.submit(_request(model)).job_id for model in models]
            gate.set()
            for job_id in job_ids:
                assert store.wait(job_id, timeout=10.0).state == "succeeded"
            assert [r.model for r in session.executions] == ["resnet50"] + models
        finally:
            gate.set()
            store.shutdown(drain_seconds=2.0)


class TestCancellation:
    def test_cancel_queued_job_never_executes(self):
        gate = threading.Event()
        started = threading.Event()

        def behaviour(request, progress, on_event):
            started.set()
            gate.wait(timeout=10.0)
            return {}

        session = _StubSession(behaviour)
        store = JobStore(session)
        try:
            blocker = store.submit(_request()).job_id
            assert started.wait(timeout=10.0)
            queued = store.submit(_request()).job_id
            record = store.cancel(queued)
            assert record.state == "cancelled"
            gate.set()
            store.wait(blocker, timeout=10.0)
            # Only the blocker ever reached the session.
            assert len(session.executions) == 1
            events, _ = store.events_after(queued, 0)
            assert [e["type"] for e in events] == ["state", "state"]
        finally:
            gate.set()
            store.shutdown(drain_seconds=2.0)

    def test_cancel_running_job_stops_at_next_progress_boundary(self):
        reached = threading.Event()
        cancelled = threading.Event()

        def behaviour(request, progress, on_event):
            progress("point 1")
            reached.set()
            cancelled.wait(timeout=10.0)
            progress("point 2")   # raises JobCancelled via the store's hook
            raise AssertionError("the job ran past its cancellation")

        store = JobStore(_StubSession(behaviour))
        try:
            job_id = store.submit(_request()).job_id
            assert reached.wait(timeout=10.0)
            record = store.cancel(job_id)
            assert record.state == "running"
            assert record.cancel_requested
            cancelled.set()
            record = store.wait(job_id, timeout=10.0)
            assert record.state == "cancelled"
            events, _ = store.events_after(job_id, 0)
            assert "cancel_requested" in [event["type"] for event in events]
        finally:
            cancelled.set()
            store.shutdown(drain_seconds=2.0)

    def test_on_event_hook_also_enforces_cancellation(self):
        reached = threading.Event()
        cancelled = threading.Event()

        def behaviour(request, progress, on_event):
            on_event({"type": "point", "done": 1, "total": 3})
            reached.set()
            cancelled.wait(timeout=10.0)
            on_event({"done": 2, "total": 3})
            raise AssertionError("the job ran past its cancellation")

        store = JobStore(_StubSession(behaviour))
        try:
            job_id = store.submit(_request()).job_id
            assert reached.wait(timeout=10.0)
            store.cancel(job_id)
            cancelled.set()
            assert store.wait(job_id, timeout=10.0).state == "cancelled"
            events, _ = store.events_after(job_id, 0)
            points = [event for event in events if event["type"] == "point"]
            assert len(points) == 1 and points[0]["done"] == 1
        finally:
            cancelled.set()
            store.shutdown(drain_seconds=2.0)

    def test_cancel_finished_job_is_a_no_op(self, store):
        job_id = store.submit(_request()).job_id
        store.wait(job_id, timeout=10.0)
        record = store.cancel(job_id)
        assert record.state == "succeeded"
        assert not record.cancel_requested


class TestRetention:
    def test_finished_jobs_are_evicted_after_the_ttl(self):
        now = [1000.0]
        store = JobStore(_StubSession(),
                         retention_seconds=60.0, clock=lambda: now[0])
        try:
            job_id = store.submit(_request()).job_id
            store.wait(job_id, timeout=10.0)
            now[0] += 59.0
            assert store.get(job_id).state == "succeeded"
            now[0] += 2.0
            assert store.purge() == 1
            with pytest.raises(UnknownJob):
                store.get(job_id)
        finally:
            store.shutdown(drain_seconds=2.0)

    def test_zero_retention_keeps_jobs_forever(self):
        now = [1000.0]
        store = JobStore(_StubSession(),
                         retention_seconds=0.0, clock=lambda: now[0])
        try:
            job_id = store.submit(_request()).job_id
            store.wait(job_id, timeout=10.0)
            now[0] += 1e9
            assert store.purge() == 0
            assert store.get(job_id).state == "succeeded"
        finally:
            store.shutdown(drain_seconds=2.0)

    def test_running_jobs_are_never_evicted(self):
        gate = threading.Event()
        now = [1000.0]

        def behaviour(request, progress, on_event):
            gate.wait(timeout=10.0)
            return {}

        store = JobStore(_StubSession(behaviour),
                         retention_seconds=1.0, clock=lambda: now[0])
        try:
            job_id = store.submit(_request()).job_id
            now[0] += 1e6
            assert store.purge() == 0
            assert store.get(job_id).state in ("queued", "running")
        finally:
            gate.set()
            store.shutdown(drain_seconds=2.0)


class TestEvents:
    def test_events_after_filters_by_sequence(self, store):
        job_id = store.submit(_request()).job_id
        store.wait(job_id, timeout=10.0)
        all_events, _ = store.events_after(job_id, 0)
        tail, state = store.events_after(job_id, all_events[1]["seq"])
        assert state == "succeeded"
        assert [event["seq"] for event in tail] == [
            event["seq"] for event in all_events[2:]
        ]

    def test_wait_events_returns_immediately_when_terminal(self, store):
        job_id = store.submit(_request()).job_id
        store.wait(job_id, timeout=10.0)
        events, state = store.wait_events(job_id, 10 ** 6, timeout=0.05)
        assert events == []
        assert state == "succeeded"

    def test_wait_events_wakes_on_new_events(self):
        gate = threading.Event()

        def behaviour(request, progress, on_event):
            gate.wait(timeout=10.0)
            progress("late event")
            return {}

        store = JobStore(_StubSession(behaviour))
        try:
            job_id = store.submit(_request()).job_id
            results = []

            def waiter():
                # Follow the stream the way the SSE loop does: keep
                # asking for events past the last seen sequence number
                # until the progress event arrives.
                last, deadline = 0, time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    events, state = store.wait_events(job_id, last, timeout=10.0)
                    results.extend(events)
                    if events:
                        last = events[-1]["seq"]
                    if any(e["type"] == "progress" for e in events):
                        return
                    if state in ("succeeded", "failed", "cancelled"):
                        return

            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.05)
            gate.set()
            thread.join(timeout=10.0)
            assert any(event["type"] == "progress" for event in results)
        finally:
            gate.set()
            store.shutdown(drain_seconds=2.0)


class TestConcurrencyStress:
    def test_parallel_submit_poll_cancel_loses_nothing(self):
        """N client threads vs the store: exactly-once execution, every
        job terminal, and the metrics counters sum exactly."""
        clients, per_client = 8, 6
        session = _StubSession()
        before = {
            state: _metrics.JOBS_TOTAL.value(state=state)
            for state in ("queued", "running", "succeeded", "cancelled")
        }
        store = JobStore(session)
        ids = []
        ids_lock = threading.Lock()
        errors = []

        def client(index):
            try:
                for i in range(per_client):
                    job_id = store.submit(_request()).job_id
                    with ids_lock:
                        ids.append(job_id)
                    if i % 3 == 2:
                        store.cancel(job_id)   # may or may not land in time
                    store.wait(job_id, timeout=30.0)
            except Exception as exc:   # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(clients)]
        # Switch threads often, so the clients interleave with the worker's
        # claim of each job rather than running whole loops in turn.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(switch_interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            total = clients * per_client
            assert len(set(ids)) == total
            records = {job_id: store.get(job_id) for job_id in ids}
            states = [record.state for record in records.values()]
            assert all(s in ("succeeded", "cancelled") for s in states)
            succeeded = states.count("succeeded")
            cancelled = states.count("cancelled")
            # Exactly one execution per non-cancelled job, none duplicated.
            assert len(session.executions) == succeeded
            # Counter deltas sum exactly across all clients.
            assert _metrics.JOBS_TOTAL.value(state="queued") \
                - before["queued"] == total
            assert _metrics.JOBS_TOTAL.value(state="succeeded") \
                - before["succeeded"] == succeeded
            assert _metrics.JOBS_TOTAL.value(state="cancelled") \
                - before["cancelled"] == cancelled
            assert _metrics.JOBS_TOTAL.value(state="running") \
                - before["running"] == succeeded
        finally:
            store.shutdown(drain_seconds=2.0)


class TestShutdown:
    def test_shutdown_cancels_queued_and_refuses_new(self):
        gate = threading.Event()
        started = threading.Event()

        def behaviour(request, progress, on_event):
            started.set()
            gate.wait(timeout=10.0)
            return {}

        store = JobStore(_StubSession(behaviour))
        blocker = store.submit(_request()).job_id
        assert started.wait(timeout=10.0)
        queued = store.submit(_request()).job_id
        gate.set()
        store.shutdown(drain_seconds=5.0)
        assert store.get(queued).state == "cancelled"
        assert store.get(blocker).state == "succeeded"
        with pytest.raises(JobStoreClosed):
            store.submit(_request())
        store.shutdown(drain_seconds=5.0)   # idempotent

    def test_shutdown_flags_jobs_that_outlive_the_drain(self):
        gate = threading.Event()
        started = threading.Event()

        def behaviour(request, progress, on_event):
            started.set()
            gate.wait(timeout=30.0)
            progress("post-drain boundary")
            return {}

        store = JobStore(_StubSession(behaviour))
        job_id = store.submit(_request()).job_id
        assert started.wait(timeout=10.0)
        store.shutdown(drain_seconds=0.1)
        assert store.get(job_id).cancel_requested
        gate.set()
        assert store.wait(job_id, timeout=10.0).state == "cancelled"

    def test_describe_reports_the_store_shape(self, store):
        job_id = store.submit(_request()).job_id
        store.wait(job_id, timeout=10.0)
        summary = store.describe()
        assert "workers" not in summary
        assert summary["accepting"] is True
        assert summary["queue_depth"] == 0
        assert summary["jobs"].get("succeeded", 0) >= 1


class TestAuditLog:
    def test_audit_records_validate_and_cover_every_transition(self, tmp_path):
        path = tmp_path / "logs" / "audit.jsonl"
        store = JobStore(_StubSession(), audit_log=path)
        try:
            ok = store.submit(_request()).job_id
            store.wait(ok, timeout=10.0)
            gone = store.submit(_request()).job_id
            store.wait(gone, timeout=10.0)
        finally:
            store.shutdown(drain_seconds=2.0)
        counts = validate_file(path)
        # Per job: one "submitted" record plus the queued->running and
        # running->succeeded transitions.
        assert counts == {"job": 6}
        records = [json.loads(line) for line in path.read_text().splitlines()]
        mine = [r for r in records if r["job_id"] == ok]
        assert [r["event"] for r in mine] == [
            "submitted", "transition", "transition",
        ]
        assert [r["state"] for r in mine] == ["queued", "running", "succeeded"]
        assert mine[0]["request"]["model"] == "snli"
        assert mine[1]["from"] == "queued"

    def test_failed_job_audit_includes_the_error(self, tmp_path):
        def behaviour(request, progress, on_event):
            raise ValueError("boom")

        path = tmp_path / "audit.jsonl"
        store = JobStore(_StubSession(behaviour), audit_log=path)
        try:
            job_id = store.submit(_request()).job_id
            store.wait(job_id, timeout=10.0)
        finally:
            store.shutdown(drain_seconds=2.0)
        validate_file(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        failed = [r for r in records if r["state"] == "failed"]
        assert failed and failed[0]["error"] == "ValueError: boom"


class TestJobCancelledType:
    def test_job_cancelled_is_not_a_schema_or_value_error(self):
        # The executor re-raises BaseException subclasses from merge();
        # JobCancelled must not be swallowed by handlers catching the
        # engine's expected failure types.
        assert issubclass(JobCancelled, RuntimeError)
        assert not issubclass(JobCancelled, ValueError)

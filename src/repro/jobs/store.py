"""The :class:`JobStore`: queue, execute, observe and cancel session requests.

One store owns one daemon worker thread that runs submitted requests
through ``session.submit``, oldest first.  The session runs one request
at a time under its own lock, so a second thread would only wait on
that lock while its job read ``running``.  Everything an observer needs
lives in memory under one condition variable:

* **state** — ``queued -> running -> succeeded | failed | cancelled``,
  every transition appended to the job's event list (and, when
  configured, to the JSONL audit log) and counted in
  ``repro_jobs_total{state}``.  A ``queued`` job is the only record of
  pending work: the worker claims the oldest one;
* **events** — monotonically sequence-numbered records: one ``state``
  event per transition, one ``progress`` event per human-readable
  status line the session emits, one ``point`` event per completed
  study point (or scale device) from the structured ``on_event`` hook
  threaded through :class:`~repro.api.session.Session` into
  :class:`~repro.explore.runner.StudyRunner` and
  :class:`~repro.scale.ScaleRunner`.  :meth:`JobStore.wait_events`
  blocks on the condition until new events arrive — the service's SSE
  stream is a thin loop over it;
* **cancellation** — cooperative: :meth:`JobStore.cancel` flips a flag
  that the progress/event hooks check, raising :class:`JobCancelled`
  out of the running handler at the next study-point (or device, or
  training-banner) boundary.  An explore job with a ``study_dir`` has
  already checkpointed every completed point to the append-only segment
  manifest, so resubmitting with ``resume=True`` skips them entirely.

Results are retained ``retention_seconds`` past completion and then
evicted (opportunistically, on the next submit/list/get — no reaper
thread).  :meth:`JobStore.shutdown` stops intake, cancels queued jobs,
and drains the running one up to a deadline — the graceful-shutdown
half of ``repro serve``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.api.schema import (
    JOB_TERMINAL_STATES,
    REQUEST_TYPES,
    JobRecord,
    JobResult,
    _ApiModel,
)
from repro.telemetry import metrics as _metrics
from repro.telemetry.tracing import get_tracer


class JobCancelled(RuntimeError):
    """Raised inside a running handler when its job's cancel flag is set."""


class UnknownJob(KeyError):
    """The job id does not exist (never submitted, or evicted by TTL)."""

    def __init__(self, job_id: str):
        super().__init__(job_id)
        self.job_id = job_id

    def __str__(self) -> str:
        return (f"unknown job {self.job_id!r} (never submitted, or already "
                f"evicted by the retention TTL)")


class JobStoreClosed(RuntimeError):
    """Submission refused because the store is shutting down."""


class _Job:
    """Internal mutable job state; snapshots leave as :class:`JobRecord`."""

    __slots__ = (
        "job_id", "request", "kind", "state", "created_s", "started_s",
        "finished_s", "error", "cancel_requested", "events", "next_seq",
        "result",
    )

    def __init__(self, job_id: str, request: _ApiModel, created_s: float):
        self.job_id = job_id
        self.request = request
        self.kind = request.kind
        self.state = "queued"
        self.created_s = created_s
        self.started_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        self.error: Optional[str] = None
        self.cancel_requested = False
        self.events: List[Dict] = []
        self.next_seq = 1
        #: The ApiResult envelope document of a succeeded job.
        self.result: Optional[Dict] = None


class JobStore:
    """Thread-safe asynchronous execution of API requests.

    Parameters
    ----------
    session:
        Anything with ``submit(request, progress=..., on_event=...)``
        returning an object with ``to_dict()`` — normally a
        :class:`~repro.api.session.Session`.  One worker thread runs
        the jobs one at a time, oldest submission first.
    retention_seconds:
        How long finished jobs (and their results/events) stay
        retrievable; older ones are evicted opportunistically.
    audit_log:
        Append one JSONL record per submission and state transition to
        this file — ``type: "job"`` records that
        :func:`repro.telemetry.schema.validate_file` accepts.  ``None``
        disables auditing.
    clock:
        Unix-time source (tests inject a fake to drive TTL eviction).
    """

    def __init__(
        self,
        session,
        retention_seconds: float = 3600.0,
        audit_log: Optional[Union[str, Path]] = None,
        clock: Callable[[], float] = time.time,
    ):
        if retention_seconds < 0:
            raise ValueError(
                f"job retention must be >= 0 seconds, got {retention_seconds}"
            )
        self.session = session
        self.retention_seconds = float(retention_seconds)
        self._clock = clock
        self._cond = threading.Condition()
        #: Every retained job in submission order (dicts keep insertion
        #: order), so the first queued one is the oldest.
        self._jobs: "Dict[str, _Job]" = {}
        self._accepting = True
        self.audit_log = str(audit_log) if audit_log else None
        self._audit_lock = threading.Lock()
        self._audit_handle = None
        if self.audit_log:
            Path(self.audit_log).parent.mkdir(parents=True, exist_ok=True)
            self._audit_handle = open(self.audit_log, "a", encoding="utf-8")
        self._thread = threading.Thread(
            target=self._worker_loop, name="job-worker", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # audit log

    def _audit(self, job: _Job, event: str, **extra) -> None:
        """Append one ``type: "job"`` record (no-op without an audit log)."""
        if self._audit_handle is None:
            return
        record = {
            "type": "job",
            "time_s": round(self._clock(), 6),
            "pid": os.getpid(),
            "job_id": job.job_id,
            "event": event,
            "state": job.state,
            "kind": job.kind,
        }
        record.update(extra)
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._audit_lock:
            if self._audit_handle is None:
                return
            self._audit_handle.write(line)
            self._audit_handle.flush()

    def _close_audit(self) -> None:
        with self._audit_lock:
            if self._audit_handle is not None:
                self._audit_handle.close()
                self._audit_handle = None

    # ------------------------------------------------------------------
    # locked helpers (callers hold self._cond)

    def _record_event_locked(self, job: _Job, payload: Dict) -> Dict:
        event = dict(payload)
        event["seq"] = job.next_seq
        event["time_s"] = round(self._clock(), 6)
        job.next_seq += 1
        job.events.append(event)
        self._cond.notify_all()
        return event

    def _transition_locked(
        self, job: _Job, state: str, error: Optional[str] = None
    ) -> None:
        previous = job.state
        job.state = state
        now = self._clock()
        if state == "running":
            job.started_s = now
        if state in JOB_TERMINAL_STATES:
            job.finished_s = now
        if error is not None:
            job.error = error
        event: Dict = {"type": "state", "state": state}
        if error is not None:
            event["error"] = error
        self._record_event_locked(job, event)
        _metrics.JOBS_TOTAL.inc(state=state)
        extra: Dict = {"from": previous}
        if error is not None:
            extra["error"] = error
        self._audit(job, "transition", **extra)

    def _queue_depth_locked(self) -> int:
        return sum(1 for job in self._jobs.values() if job.state == "queued")

    def _update_queue_gauge_locked(self) -> None:
        _metrics.JOB_QUEUE_DEPTH.set(self._queue_depth_locked())

    def _require_locked(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def _purge_locked(self) -> int:
        if self.retention_seconds <= 0:
            return 0
        horizon = self._clock() - self.retention_seconds
        expired = [
            job_id for job_id, job in self._jobs.items()
            if job.finished_s is not None and job.finished_s < horizon
        ]
        for job_id in expired:
            del self._jobs[job_id]
        if expired:
            self._cond.notify_all()
        return len(expired)

    def _snapshot_locked(self, job: _Job) -> JobRecord:
        return JobRecord(
            job_id=job.job_id,
            request_kind=job.kind,
            state=job.state,
            created_s=job.created_s,
            started_s=job.started_s,
            finished_s=job.finished_s,
            error=job.error,
            cancel_requested=job.cancel_requested,
            events=len(job.events),
            request=job.request.to_dict(),
        )

    # ------------------------------------------------------------------
    # public API

    def submit(self, request: _ApiModel) -> JobRecord:
        """Queue ``request`` for execution; returns the job's ``queued`` record.

        The record is the snapshot taken as the job was queued, so it
        reads ``queued`` however soon the worker claims the job.
        """
        kind = getattr(request, "kind", None)
        if kind not in REQUEST_TYPES:
            raise TypeError(
                f"unsupported request type {type(request).__name__!r}; "
                f"expected one of {sorted(REQUEST_TYPES)}"
            )
        job_id = uuid.uuid4().hex[:12]
        with self._cond:
            if not self._accepting:
                raise JobStoreClosed(
                    "job store is shutting down and no longer accepts jobs"
                )
            self._purge_locked()
            job = _Job(job_id, request, created_s=self._clock())
            self._jobs[job_id] = job
            _metrics.JOBS_TOTAL.inc(state="queued")
            self._update_queue_gauge_locked()
            self._audit(job, "submitted", request=request.to_dict())
            self._record_event_locked(job, {"type": "state", "state": "queued"})
            return self._snapshot_locked(job)

    def get(self, job_id: str) -> JobRecord:
        """A point-in-time :class:`JobRecord` snapshot of one job."""
        with self._cond:
            self._purge_locked()
            return self._snapshot_locked(self._require_locked(job_id))

    def list(self, state: Optional[str] = None) -> List[JobRecord]:
        """Snapshots of every retained job, oldest submission first."""
        with self._cond:
            self._purge_locked()
            jobs = sorted(self._jobs.values(), key=lambda job: job.created_s)
            return [
                self._snapshot_locked(job)
                for job in jobs
                if state is None or job.state == state
            ]

    def result(self, job_id: str) -> JobResult:
        """The :class:`JobResult` of a finished job.

        Raises :class:`ValueError` while the job is still queued or
        running — poll :meth:`get` (or stream events) until a terminal
        state first.
        """
        with self._cond:
            job = self._require_locked(job_id)
            if job.state not in JOB_TERMINAL_STATES:
                raise ValueError(
                    f"job {job_id!r} is {job.state}; its result is available "
                    f"once it reaches a terminal state"
                )
            return JobResult(
                job_id=job.job_id,
                state=job.state,
                result=job.result,
                error=job.error,
            )

    def cancel(self, job_id: str) -> JobRecord:
        """Request cancellation; returns the resulting snapshot.

        A queued job is cancelled immediately (it never executes).  A
        running job gets its flag set and stops at the next progress
        boundary — study point, scale device or training banner.
        Cancelling a finished job is a no-op.
        """
        with self._cond:
            job = self._require_locked(job_id)
            if job.state == "queued":
                job.cancel_requested = True
                self._transition_locked(job, "cancelled")
                self._update_queue_gauge_locked()
            elif job.state == "running" and not job.cancel_requested:
                job.cancel_requested = True
                self._record_event_locked(job, {"type": "cancel_requested"})
            return self._snapshot_locked(job)

    def purge(self) -> int:
        """Evict finished jobs past retention; returns the count removed."""
        with self._cond:
            return self._purge_locked()

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until the job reaches a terminal state (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._require_locked(job_id)
                if job.state in JOB_TERMINAL_STATES:
                    return self._snapshot_locked(job)
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return self._snapshot_locked(job)
                self._cond.wait(remaining)

    def events_after(self, job_id: str, seq: int = 0) -> Tuple[List[Dict], str]:
        """Events with sequence numbers beyond ``seq``, plus current state."""
        with self._cond:
            job = self._require_locked(job_id)
            events = [dict(event) for event in job.events if event["seq"] > seq]
            return events, job.state

    def wait_events(
        self, job_id: str, seq: int = 0, timeout: Optional[float] = None
    ) -> Tuple[List[Dict], str]:
        """Like :meth:`events_after`, but blocks until something is new.

        Returns as soon as at least one event beyond ``seq`` exists, the
        job is terminal (possibly with no new events — the stream is
        over), or the timeout lapses (empty list; callers emit an SSE
        keep-alive and loop).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._require_locked(job_id)
                events = [dict(event) for event in job.events if event["seq"] > seq]
                if events or job.state in JOB_TERMINAL_STATES:
                    return events, job.state
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return [], job.state
                self._cond.wait(remaining)

    def describe(self) -> Dict:
        """Operational summary for ``/v1/health`` and the CLI."""
        with self._cond:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "accepting": self._accepting,
                "retention_seconds": self.retention_seconds,
                "audit_log": self.audit_log,
                "jobs": states,
                "queue_depth": states.get("queued", 0),
            }

    def shutdown(self, drain_seconds: float = 10.0) -> None:
        """Stop intake, cancel queued jobs, drain the running one, close logs.

        Queued jobs transition straight to ``cancelled``; the running
        job gets ``drain_seconds`` to finish, after which its cancel
        flag is set so it stops at the next progress boundary (the
        worker thread is daemonic — process exit does not wait for it).
        Idempotent.
        """
        with self._cond:
            if not self._accepting:
                return
            self._accepting = False
            for job in list(self._jobs.values()):
                if job.state == "queued":
                    job.cancel_requested = True
                    self._transition_locked(job, "cancelled")
            self._update_queue_gauge_locked()
            self._cond.notify_all()   # an idle worker wakes up and exits
        self._thread.join(max(0.0, drain_seconds))
        with self._cond:
            for job in self._jobs.values():
                if job.state == "running":
                    job.cancel_requested = True
        self._close_audit()

    # ------------------------------------------------------------------
    # worker side

    def _claim_next(self) -> Optional[_Job]:
        """Block until a job is queued, then mark the oldest one running.

        Returns ``None`` once the store stops accepting (shutdown
        cancels every queued job in the same critical section).  Each
        submission records a ``queued`` event, which notifies the
        condition, so an idle worker wakes for it.  The queued->running
        transition happens exactly once, under the lock, so a job can
        never execute twice.
        """
        with self._cond:
            while self._accepting:
                for job in self._jobs.values():
                    if job.state == "queued":
                        self._transition_locked(job, "running")
                        self._update_queue_gauge_locked()
                        return job
                self._cond.wait()
            return None

    def _worker_loop(self) -> None:
        job = self._claim_next()
        while job is not None:
            self._execute(job)
            job = self._claim_next()

    def _execute(self, job: _Job) -> None:
        def guard() -> None:
            if job.cancel_requested:
                raise JobCancelled(job.job_id)

        def progress(message: str) -> None:
            guard()
            with self._cond:
                self._record_event_locked(
                    job, {"type": "progress", "message": str(message)}
                )

        def on_event(event: Dict) -> None:
            guard()
            payload = dict(event)
            payload.setdefault("type", "point")
            with self._cond:
                self._record_event_locked(job, payload)

        started = time.perf_counter()
        try:
            with get_tracer().span("job.run", job_id=job.job_id, kind=job.kind):
                guard()
                result = self.session.submit(
                    job.request, progress=progress, on_event=on_event
                )
        except JobCancelled:
            with self._cond:
                self._transition_locked(job, "cancelled")
        except Exception as exc:   # noqa: BLE001 - job failure, not store failure
            with self._cond:
                self._transition_locked(
                    job, "failed", error=f"{type(exc).__name__}: {exc}"
                )
        else:
            job.result = result.to_dict()
            with self._cond:
                self._transition_locked(job, "succeeded")
        _metrics.JOB_SECONDS.observe(time.perf_counter() - started)

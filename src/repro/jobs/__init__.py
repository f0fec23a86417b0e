"""``repro.jobs``: asynchronous job execution over one shared session.

The missing layer between the request/response service (``repro serve``)
and the long-running work it fronts: a thread-safe in-memory
:class:`JobStore` accepts any :mod:`repro.api.schema` request, runs the
queued jobs one at a time on one worker thread, records per-job progress
events (the ``/v1/jobs/<id>/events`` SSE feed), honours cooperative
cancellation at study-point boundaries, evicts finished jobs after a
retention TTL, and appends every submission and state transition to a
persistent JSONL audit log validated by :mod:`repro.telemetry.schema`.

Jobs move ``queued -> running -> succeeded | failed | cancelled``;
:data:`~repro.api.schema.JOB_STATES` is the wire contract.  See
``docs/jobs.md`` for the lifecycle walkthrough.
"""

from repro._lazy import lazy_exports

__all__ = [
    "JobCancelled",
    "JobStore",
    "JobStoreClosed",
    "UnknownJob",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.jobs.store": (
        "JobCancelled", "JobStore", "JobStoreClosed", "UnknownJob",
    ),
})

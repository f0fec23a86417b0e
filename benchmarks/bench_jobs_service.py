"""Microbenchmark: the asynchronous job layer's overhead discipline.

Starts a real ``repro serve`` instance on an ephemeral port, warms the
session's caches with one explore study, then measures the same study
end-to-end through both paths, interleaved best-of-N:

* **blocking** — one ``POST /v1/explore`` holding the connection;
* **jobs** — ``POST /v1/jobs`` + streaming the SSE event feed to the
  terminal state + ``GET /v1/jobs/<id>/result``.

With a warm cache both paths do identical simulation work (nearly none),
so the difference is pure subsystem overhead: queueing, worker handoff,
event recording, SSE framing and the extra HTTP round-trips.  The gate
enforces the submit/poll tax stays under ``MAX_OVERHEAD`` of the
blocking path (plus a small absolute allowance for the extra
round-trips, which dominate when the study itself costs milliseconds).

Results go to ``BENCH_jobs.json`` at the repository root.

Run directly::

    PYTHONPATH=src python benchmarks/bench_jobs_service.py

CI gate mode (same workload, same gates)::

    PYTHONPATH=src python benchmarks/bench_jobs_service.py --check
"""

from __future__ import annotations

import argparse
import json
import statistics
import threading
import time
import urllib.request
from pathlib import Path

from benchmarks.common import print_header

from repro.analysis.reporting import format_table
from repro.api.service import create_server
from repro.api.session import Session

ROUNDS = 9
#: The async path may cost at most this fraction over blocking...
MAX_OVERHEAD = 0.05
#: ...plus this absolute allowance for its two extra HTTP round-trips
#: (submit ack + result fetch), which are fixed cost, not scaling cost.
ABSOLUTE_SLACK_S = 0.05

SPEC = {
    "name": "bench-jobs", "workloads": ["snli"],
    "knobs": {"staging": [1, 2], "rows": [2, 4]},
    "epochs": 1, "batches_per_epoch": 1, "batch_size": 4, "max_groups": 16,
}

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_jobs.json"


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return json.loads(response.read())


def _blocking_round(base):
    began = time.perf_counter()
    envelope = _post(base + "/v1/explore", {"spec": SPEC})
    seconds = time.perf_counter() - began
    return seconds, envelope


def _job_round(base):
    began = time.perf_counter()
    record = _post(base + "/v1/jobs", {"kind": "explore", "spec": SPEC})
    job_id = record["job_id"]
    events = 0
    with urllib.request.urlopen(
        urllib.request.Request(f"{base}/v1/jobs/{job_id}/events"), timeout=300
    ) as response:
        for raw in response:
            if raw.startswith(b"event: "):
                events += 1
    with urllib.request.urlopen(
        f"{base}/v1/jobs/{job_id}/result", timeout=60
    ) as response:
        envelope = json.loads(response.read())
    seconds = time.perf_counter() - began
    return seconds, envelope, events


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate mode (same workload and gates; kept for harness "
             "symmetry)",
    )
    args = parser.parse_args()

    print_header(
        "Job subsystem overhead: async must not tax the study",
        "Service-plane microbenchmark (no paper figure): blocking "
        "/v1/explore vs POST /v1/jobs + SSE + result on a warm cache",
    )

    server = create_server(port=0, session=Session())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        # Warm-up: train + simulate once so every measured round is pure
        # cache hits and the comparison isolates transport/job overhead.
        _blocking_round(base)

        blocking, jobs, sse_events = [], [], 0
        reference = None
        for _ in range(ROUNDS):
            seconds, envelope = _blocking_round(base)
            blocking.append(seconds)
            reference = envelope["result"]
            seconds, envelope, events = _job_round(base)
            jobs.append(seconds)
            sse_events = events
            if envelope["state"] != "succeeded":
                raise AssertionError(
                    f"async explore job finished {envelope['state']!r}"
                )
            if envelope["result"]["result"] != reference:
                raise AssertionError(
                    "async job payload differs from the blocking route"
                )
    finally:
        server.shutdown_gracefully(drain_seconds=10.0)
        thread.join(timeout=5.0)

    blocking_s = statistics.median(blocking)
    jobs_s = statistics.median(jobs)
    overhead = jobs_s / blocking_s - 1.0
    limit_s = blocking_s * (1.0 + MAX_OVERHEAD) + ABSOLUTE_SLACK_S

    print(format_table(
        f"explore study ({len(SPEC['knobs']['staging']) * len(SPEC['knobs']['rows'])} "
        f"points, warm cache), median of {ROUNDS} interleaved rounds",
        ["path", "seconds", "overhead"],
        [
            ["blocking POST /v1/explore", blocking_s, "-"],
            ["POST /v1/jobs + SSE + result", jobs_s, f"{overhead:+.2%}"],
        ],
    ))
    print(f"\nSSE events per job round: {sse_events}; payloads identical "
          f"across both paths")
    print(f"Gate: {jobs_s:.4f}s <= {blocking_s:.4f}s x "
          f"{1.0 + MAX_OVERHEAD:.2f} + {ABSOLUTE_SLACK_S:.2f}s "
          f"= {limit_s:.4f}s")

    if jobs_s > limit_s:
        raise AssertionError(
            f"async job path costs {jobs_s:.4f}s vs blocking "
            f"{blocking_s:.4f}s — over the {MAX_OVERHEAD:.0%} + "
            f"{ABSOLUTE_SLACK_S}s gate"
        )

    payload = {
        "benchmark": "jobs_service_overhead",
        "check_mode": args.check,
        "study_points": 4,
        "rounds": ROUNDS,
        "blocking_seconds": round(blocking_s, 6),
        "jobs_seconds": round(jobs_s, 6),
        "overhead_fraction": round(overhead, 6),
        "max_overhead_fraction": MAX_OVERHEAD,
        "absolute_slack_seconds": ABSOLUTE_SLACK_S,
        "sse_events_per_round": sse_events,
        "payloads_identical": True,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"Wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

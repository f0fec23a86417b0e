"""Command-line interface for the TensorDash reproduction.

Every subcommand is a thin client of the unified programmatic API
(:mod:`repro.api`): it builds a typed request, submits it to a
:class:`~repro.api.Session` — which owns the one simulation engine, the
trace cache and the result memo — and formats the returned
:class:`~repro.api.schema.ApiResult`.  The same requests can be POSTed as
JSON to a running ``repro serve``.

``list-models``
    Show the registered workloads (the paper's model list).

``simulate``
    Train one workload briefly, trace it and report TensorDash's
    per-operation speedups, potential speedups and energy efficiency.
    ``--format json`` emits the full result envelope instead.

``roofline``
    Simulate one workload under a *finite* memory hierarchy (Table 2's
    4-channel LPDDR4-3200 by default, or ``--dram-bandwidth-gbps`` /
    ``--sram-kb`` overrides) and print the roofline: per-layer
    operational intensity, attainable vs achieved throughput, stall
    fractions and compute/memory-bound verdicts, plus the speedup with
    and without memory stalls.  ``--format json`` supported.

``scale``
    Partition one workload across N simulated accelerator devices —
    ``--partition data`` (batch sharding + weight-gradient ring
    all-reduce) or ``--partition pipeline`` (MAC-balanced layer stages
    exchanging boundary activations) — under a configurable
    device-to-device link (``--link-gbps`` / ``--hop-latency-cycles``),
    and report per-device cycles, communication stalls and the scaling
    efficiency against ideal linear.  ``--format json`` supported.

``sweep``
    Re-simulate one traced workload across a one-knob configuration
    sweep (a one-knob ``explore`` study under the hood).  Scaling knobs
    (``num_devices``, ``partition``, ``link_gbps``) sweep too — the
    quickest way to a scaling-efficiency curve.

``explore``
    Run a declarative design-space study from a JSON spec: accelerator
    knobs x workloads x sparsity scenarios, with Pareto-frontier
    analysis over (speedup, energy efficiency, area overhead) and a
    resumable on-disk manifest (``--study-dir`` + ``--resume``).

``diff``
    Compare two study manifests (or two sets of ``BENCH_*.json``
    trajectory files): per-point metric deltas with configurable
    tolerance, Pareto-frontier membership changes, "which knob moved
    this" attribution, and improved/held/regressed classification of
    watched benchmark gates.  ``--fail-on regressed`` exits nonzero on
    regressions — the CI ``regression-watch`` gate.  Sides are study
    directories, ``manifest.json`` / ``manifest.segment.jsonl`` files,
    ``repro explore --format json`` documents, BENCH files, or
    directories of BENCH files; the mode is auto-detected.

``serve``
    Start the batch simulation service: concurrent clients POST request
    documents to ``/v1/simulate`` etc. and share one warm session, so a
    workload any client already ran returns as pure cache hits.
    ``POST /v1/jobs`` runs any request asynchronously, one job at a
    time on one worker thread, with SSE progress streams, cooperative
    cancellation and TTL result retention (``--job-retention``);
    ``--audit-log`` records every job state transition.
    ``GET /v1/metrics`` serves the process metrics registry in
    Prometheus text format; ``--access-log`` appends one structured
    JSON line per response.  SIGTERM/SIGINT shut down gracefully,
    draining the running job up to ``--drain-seconds``.

``jobs``
    Client for a running server's asynchronous job API: ``jobs list``
    tabulates the store, ``jobs show ID`` prints one record, ``jobs
    watch ID`` follows the job's Server-Sent-Events progress stream
    until it finishes, and ``jobs cancel ID`` requests cooperative
    cancellation.  ``--url`` points them at the server (default
    ``http://127.0.0.1:8000``).  See ``docs/jobs.md``.

``trace``
    Render the span tree of a recorded telemetry run: point it at a
    JSONL event log (or a whole ``--telemetry-dir`` directory) and it
    prints every trace's nested spans with total and self times — the
    profiler view from ``docs/performance.md``, for any run that was
    recorded, not just the benchmark harness.

Telemetry: every simulating subcommand accepts ``--telemetry-dir DIR``
(or ``REPRO_TELEMETRY_DIR``), which enables the structured tracer in
:mod:`repro.telemetry` — session submits, engine batches, cache lookups,
study points and per-device scale dispatches are recorded as nested
spans in an append-only JSONL log under DIR, ready for ``repro trace``.
Disabled (the default), telemetry costs nothing and outputs are
bit-identical.

Every simulating subcommand executes through the simulation engine
(:mod:`repro.engine`): ``--cache-dir`` enables the on-disk result cache
so repeated runs, sweeps and resumed studies skip already-simulated
layers.  An unset flag falls back to the ``REPRO_CACHE_DIR`` environment
variable (one shared resolution helper,
:func:`repro.engine.resolve_engine_options`).  Cache entries are
content-addressed by the configuration values the scheduling kernel
reads (tile rows, lanes, staging depth, staging-refill limit, power
gating, ``--max-groups``) and a hash of the layer trace; traffic and the
memory-hierarchy constraint are recomputed on every hit.  Changing a
kernel knob or the traced operands (e.g. via ``--seed`` or ``--epochs``)
simply produces new keys, so stale results are never returned — old
entries are inert files and the cache directory can be deleted at any
time to reclaim space.  Concurrent processes may share one cache
directory.

Examples
--------
::

    python -m repro --version
    python -m repro list-models
    python -m repro simulate alexnet --epochs 2
    python -m repro simulate snli --format json
    python -m repro roofline snli --dram-bandwidth-gbps 4
    python -m repro scale resnet50 --devices 8 --partition data --trace-max-batch 8
    python -m repro sweep snli --knob num_devices --values 1,2,4,8
    python -m repro sweep snli --knob dram_bandwidth_gbps --values 4,12.8,51.2
    python -m repro sweep squeezenet --knob rows --values 1,4,16 \\
        --cache-dir ~/.cache/repro   # second run: zero re-simulations
    python -m repro explore examples/specs/dse_small.json \\
        --study-dir /tmp/study       # kill it, then add --resume
    python -m repro serve --port 8000
    curl -X POST http://127.0.0.1:8000/v1/simulate \\
        -d '{"model": "snli", "epochs": 1}'
    curl -X POST http://127.0.0.1:8000/v1/jobs \\
        -d '{"kind": "simulate", "model": "snli", "epochs": 1}'
    python -m repro jobs list
    python -m repro jobs watch a1b2c3d4e5f6
    python -m repro simulate snli --telemetry-dir /tmp/repro-tele
    python -m repro trace /tmp/repro-tele --min-ms 1
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional, Tuple

from repro._version import __version__
from repro.analysis.reporting import format_engine_stats, format_table
from repro.explore.spec import KNOBS, SCALE_KNOBS
from repro.models.registry import MODEL_REGISTRY, available_models


def _add_engine_arguments(
    command: argparse.ArgumentParser, seed_default: Optional[int] = 0
) -> None:
    """Engine flags shared by every simulating subcommand."""
    command.add_argument(
        "--cache-dir", default=None,
        help="directory for the on-disk result cache; layers already "
             "scheduled under the same kernel knobs and trace are loaded "
             "instead of re-simulated.  Keys are content hashes, so "
             "changing a kernel knob or the seed/trace invalidates "
             "entries automatically; concurrent runs may share one "
             "directory; delete it to reclaim space "
             "(default: $REPRO_CACHE_DIR, else disabled)")
    command.add_argument(
        "--telemetry-dir", default=None,
        help="directory for the structured telemetry event log: nested "
             "spans (session submits, engine batches, cache lookups, "
             "study points, per-device dispatches) and metrics snapshots "
             "as rotating JSONL, rendered later by 'repro trace' "
             "(default: $REPRO_TELEMETRY_DIR, else disabled)")
    if seed_default is None:
        seed_help = ("model/dataset seed; overrides the spec's 'seed' field "
                     "when given (default: use the spec's seed)")
    else:
        seed_help = ("model/dataset seed; fixed by default so repeated runs "
                     "produce identical traces (and therefore cache hits)")
    command.add_argument("--seed", type=int, default=seed_default, help=seed_help)


def _max_body_mb(text: str) -> float:
    """``--max-body-mb``, refused at parse time by the server's own rule."""
    from repro.api.service import body_limit_bytes

    try:
        body_limit_bytes(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TensorDash (MICRO 2020) reproduction command-line interface",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-models", help="list the registered workloads")

    simulate = subparsers.add_parser(
        "simulate", help="train, trace and simulate one workload"
    )
    simulate.add_argument("model", choices=available_models())
    simulate.add_argument("--epochs", type=int, default=2)
    simulate.add_argument("--batch-size", type=int, default=8)
    simulate.add_argument("--batches-per-epoch", type=int, default=2)
    simulate.add_argument("--max-groups", type=int, default=64,
                          help="work groups sampled per layer per operation")
    simulate.add_argument("--datatype", choices=("fp32", "bfloat16"), default="fp32")
    simulate.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format: human-readable tables, or the JSON result "
             "envelope the programmatic API returns (default: table)")
    _add_engine_arguments(simulate)

    roofline = subparsers.add_parser(
        "roofline",
        help="simulate one workload under a bandwidth-constrained memory "
             "hierarchy and print its roofline (intensity, ridge point, "
             "stalls, compute/memory-bound verdicts)",
    )
    roofline.add_argument("model", choices=available_models())
    roofline.add_argument("--epochs", type=int, default=2)
    roofline.add_argument("--batch-size", type=int, default=8)
    roofline.add_argument("--batches-per-epoch", type=int, default=2)
    roofline.add_argument("--max-groups", type=int, default=64,
                          help="work groups sampled per layer per operation")
    roofline.add_argument("--datatype", choices=("fp32", "bfloat16"), default="fp32")
    roofline.add_argument(
        "--dram-bandwidth-gbps", type=float, default=None,
        help="sustainable off-chip bandwidth in GB/s (default: the Table 2 "
             "machine's peak, 4-channel LPDDR4-3200 = 51.2 GB/s)")
    roofline.add_argument(
        "--sram-bandwidth-gbps", type=float, default=None,
        help="aggregate on-chip AM/BM/CM bandwidth in GB/s "
             "(default: unlimited)")
    roofline.add_argument(
        "--sram-kb", type=int, default=None,
        help="total on-chip capacity in KB; working sets that overflow it "
             "are re-fetched from DRAM (default: unlimited)")
    roofline.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format: human-readable tables, or the JSON result "
             "envelope the programmatic API returns (default: table)")
    _add_engine_arguments(roofline)

    scale = subparsers.add_parser(
        "scale",
        help="partition one workload across N simulated devices (data or "
             "pipeline parallel) and report per-device cycles, "
             "communication stalls and scaling efficiency",
    )
    scale.add_argument("model", choices=available_models())
    scale.add_argument("--devices", type=int, default=2,
                       help="number of simulated accelerator devices "
                            "(default: 2)")
    scale.add_argument("--partition", choices=("data", "pipeline"),
                       default="data",
                       help="partitioning strategy: 'data' shards the batch "
                            "and all-reduces weight gradients, 'pipeline' "
                            "cuts the layers into MAC-balanced stages "
                            "(default: data)")
    scale.add_argument(
        "--link-gbps", default="25",
        help="device-to-device link bandwidth in GB/s, or 'unbounded' for "
             "an infinite link (default: 25)")
    scale.add_argument(
        "--hop-latency-cycles", type=int, default=500,
        help="fixed per-hop transfer latency in accelerator cycles "
             "(default: 500, i.e. 1 us at 500 MHz)")
    scale.add_argument(
        "--trace-max-batch", type=int, default=None,
        help="traced samples kept per convolutional layer; raise to at "
             "least --devices so data-parallel shards stay balanced "
             "(default: the trainer's cap of 4, matching 'simulate')")
    scale.add_argument("--epochs", type=int, default=2)
    scale.add_argument("--batch-size", type=int, default=8)
    scale.add_argument("--batches-per-epoch", type=int, default=2)
    scale.add_argument("--max-groups", type=int, default=64,
                       help="work groups sampled per layer per operation")
    scale.add_argument("--datatype", choices=("fp32", "bfloat16"), default="fp32")
    scale.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format: human-readable tables, or the JSON result "
             "envelope the programmatic API returns (default: table)")
    _add_engine_arguments(scale)

    sweep = subparsers.add_parser(
        "sweep",
        help="sweep one design knob over a traced workload "
             "(a one-knob 'explore' study)",
    )
    sweep.add_argument("model", choices=available_models())
    sweep.add_argument("--knob", choices=sorted(KNOBS) + sorted(SCALE_KNOBS),
                       default="rows")
    sweep.add_argument("--values", default="1,4,8,16",
                       help="comma-separated knob values")
    sweep.add_argument("--epochs", type=int, default=2)
    sweep.add_argument("--max-groups", type=int, default=48)
    sweep.add_argument(
        "--trace-max-batch", type=int, default=None,
        help="traced samples kept per convolutional layer; raise to the "
             "largest value when sweeping num_devices (default: 4)")
    _add_engine_arguments(sweep)

    explore = subparsers.add_parser(
        "explore",
        help="run a declarative design-space study from a JSON spec, "
             "with Pareto-frontier analysis and resumable checkpoints",
    )
    explore.add_argument("spec", help="path to a StudySpec JSON file")
    explore.add_argument(
        "--study-dir", default=None,
        help="directory for the study manifest and (by default) the result "
             "cache; required for --resume")
    explore.add_argument(
        "--resume", action="store_true",
        help="skip points already completed in the --study-dir manifest; "
             "layers simulated before an interruption return as cache hits")
    explore.add_argument(
        "--sample", type=int, default=None,
        help="randomly sample N points from the space instead of running "
             "the full cartesian product (seeded by --seed)")
    explore.add_argument(
        "--objectives", default=None,
        help="comma-separated frontier objectives overriding the spec's, "
             "e.g. 'speedup,area_overhead' or 'speedup:max,area_overhead:min'")
    explore.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="report format (default: table)")
    explore.add_argument(
        "--output", default=None,
        help="write the report to this file instead of stdout")
    _add_engine_arguments(explore, seed_default=None)

    diff = subparsers.add_parser(
        "diff",
        help="compare two study manifests or BENCH_*.json sets: metric "
             "deltas, frontier changes, knob attribution, regression watch",
    )
    diff.add_argument(
        "a", help="baseline: a study dir, manifest/study-document JSON, "
                  "manifest segment .jsonl, BENCH_*.json file, or a "
                  "directory of BENCH_*.json files")
    diff.add_argument("b", help="candidate, same accepted forms as A")
    diff.add_argument(
        "--mode", choices=("auto", "study", "bench"), default="auto",
        help="comparison mode; 'auto' detects BENCH files vs study "
             "artifacts from the paths' contents (default: auto)")
    diff.add_argument(
        "--tolerance", type=float, default=None,
        help="relative tolerance below which a metric counts as held "
             "(default: 0 for study mode — any change reports; 0.25 for "
             "bench mode's informational timing metrics)")
    diff.add_argument(
        "--ignore", default=None,
        help="comma-separated metric names treated as noise and dropped "
             "before diffing (study mode)")
    diff.add_argument(
        "--objectives", default=None,
        help="comma-separated frontier objectives overriding the specs', "
             "e.g. 'speedup,area_overhead:min' (study mode)")
    diff.add_argument(
        "--format", choices=("table", "json", "markdown"), default="table",
        help="report format (default: table)")
    diff.add_argument(
        "--fail-on", choices=("regressed", "changed"), default=None,
        help="exit 1 when the diff contains any entry of this class "
             "(the CI regression gate)")
    _add_engine_arguments(diff, seed_default=None)

    serve = subparsers.add_parser(
        "serve",
        help="start the batch simulation service: POST request JSON to "
             "/v1/simulate|roofline|sweep|explore; concurrent clients "
             "share one warm engine cache",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port to listen on; 0 picks a free port "
                            "(default: 8000)")
    serve.add_argument("--study-root", default=None,
                       help="directory under which POSTed explore requests "
                            "may place their study_dir; without it, "
                            "client-supplied study_dir paths are refused "
                            "(they create directories and write files)")
    serve.add_argument("--access-log", default=None,
                       help="append one structured JSON line per HTTP "
                            "response (method, path, status, duration, "
                            "sizes) to this file; off by default")
    serve.add_argument(
        "--job-retention", type=float, default=3600.0,
        help="seconds a finished job's record and result stay queryable "
             "before eviction; 0 keeps them forever (default: 3600)")
    serve.add_argument(
        "--audit-log", default=None,
        help="append one structured JSON line per job submission and "
             "state transition to this file (validated by "
             "repro.telemetry.schema); off by default")
    serve.add_argument(
        "--max-body-mb", type=_max_body_mb, default=8.0,
        help="largest accepted request body in MiB; bigger bodies are "
             "refused with HTTP 413 (default: 8)")
    serve.add_argument(
        "--drain-seconds", type=float, default=10.0,
        help="on SIGTERM/SIGINT, seconds to wait for the running job to "
             "finish before exiting anyway (default: 10)")
    _add_engine_arguments(serve)

    jobs = subparsers.add_parser(
        "jobs",
        help="inspect and control a running server's asynchronous jobs "
             "(list, show, watch the SSE progress stream, cancel)",
    )
    jobs.add_argument(
        "--url", default="http://127.0.0.1:8000",
        help="base URL of the repro serve instance "
             "(default: http://127.0.0.1:8000)")
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)
    jobs_list = jobs_sub.add_parser("list", help="list the server's jobs")
    jobs_list.add_argument(
        "--state", default=None,
        choices=("queued", "running", "succeeded", "failed", "cancelled"),
        help="only jobs currently in this state")
    jobs_list.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table)")
    jobs_show = jobs_sub.add_parser("show", help="print one job record")
    jobs_show.add_argument("job_id")
    jobs_watch = jobs_sub.add_parser(
        "watch",
        help="stream a job's progress events (SSE) until it finishes")
    jobs_watch.add_argument("job_id")
    jobs_watch.add_argument(
        "--since", type=int, default=0,
        help="replay only events after this sequence number (default: all)")
    jobs_cancel = jobs_sub.add_parser(
        "cancel", help="request cooperative cancellation of a job")
    jobs_cancel.add_argument("job_id")

    trace = subparsers.add_parser(
        "trace",
        help="render the span tree of a recorded telemetry run "
             "(self/total times per span, like a profiler)",
    )
    trace.add_argument(
        "log",
        help="a telemetry JSONL event log, or a --telemetry-dir directory "
             "of rotated segments")
    trace.add_argument(
        "--trace-id", default=None,
        help="render only traces whose id starts with this prefix")
    trace.add_argument(
        "--min-ms", type=float, default=0.0,
        help="hide spans shorter than this many milliseconds "
             "(hidden spans are counted, never silently dropped)")
    trace.add_argument(
        "--summary", action="store_true",
        help="also print the flat per-span-name profile "
             "(count, total, self), heaviest self time first")
    return parser


class CliError(Exception):
    """A user-input problem reported as a usage error (no traceback)."""


def _session_for(args: argparse.Namespace):
    """The one :class:`Session` a CLI invocation drives (env fallbacks in)."""
    from repro.api.session import Session

    return Session(
        cache_dir=args.cache_dir,
        telemetry_dir=getattr(args, "telemetry_dir", None),
        seed=getattr(args, "seed", None) or 0,
    )


def _engine_line(result) -> str:
    """The ``engine: ...`` stats line for one result envelope."""
    from repro.engine.engine import EngineStats

    return format_engine_stats(EngineStats.from_dict(result.engine))


def _command_list_models() -> int:
    rows = [
        [name, spec.pruning or "-", spec.description]
        for name, spec in sorted(MODEL_REGISTRY.items())
    ]
    print(format_table("Registered workloads", ["model", "pruning", "description"], rows))
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from repro.api.schema import SimulateRequest

    request = SimulateRequest(
        model=args.model, epochs=args.epochs,
        batches_per_epoch=args.batches_per_epoch, batch_size=args.batch_size,
        max_groups=args.max_groups, datatype=args.datatype, seed=args.seed,
    )
    quiet = args.format == "json"
    result = _session_for(args).submit(request, progress=None if quiet else print)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    payload = result.result
    rows = [
        [op, payload.potentials.get(op, float("nan")), payload.speedups[op]]
        for op in ("AxW", "AxG", "WxG", "Total")
    ]
    print(format_table(
        f"{args.model}: TensorDash vs baseline",
        ["operation", "potential", "speedup"],
        rows,
    ))
    print(f"Core energy efficiency:    {payload.core_energy_efficiency:.3f}x")
    print(f"Overall energy efficiency: {payload.overall_energy_efficiency:.3f}x")
    print(_engine_line(result))
    return 0


def _command_roofline(args: argparse.Namespace) -> int:
    from repro.analysis.roofline import RooflineReport, format_roofline_report
    from repro.api.schema import RooflineRequest

    request = RooflineRequest(
        model=args.model, epochs=args.epochs,
        batches_per_epoch=args.batches_per_epoch, batch_size=args.batch_size,
        max_groups=args.max_groups, datatype=args.datatype, seed=args.seed,
        dram_bandwidth_gbps=args.dram_bandwidth_gbps,
        sram_bandwidth_gbps=args.sram_bandwidth_gbps,
        sram_kb=args.sram_kb,
    )
    quiet = args.format == "json"
    result = _session_for(args).submit(request, progress=None if quiet else print)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    payload = result.result
    print(format_roofline_report(RooflineReport.from_dict(payload.roofline)))
    print(f"Memory-bound operations:   {payload.memory_bound_operations} "
          f"of {payload.total_operations}")
    print(f"Stall fraction:            {payload.stall_fraction:.1%}")
    print(f"Speedup (with stalls):     {payload.speedup:.3f}x")
    print(f"Speedup (compute only):    {payload.compute_speedup:.3f}x")
    print(_engine_line(result))
    return 0


def _parse_link_gbps(value: str) -> Optional[float]:
    """``--link-gbps`` parsing: a positive float, or 'unbounded' -> None."""
    text = value.strip().lower()
    if text in ("unbounded", "inf", "infinite", "none"):
        return None
    try:
        return float(text)
    except ValueError:
        raise CliError(
            f"--link-gbps expects a bandwidth in GB/s or 'unbounded', "
            f"got {value!r}"
        ) from None


def _command_scale(args: argparse.Namespace) -> int:
    from repro.api.schema import ScaleRequest
    from repro.scale import ScalingReport, format_scaling_report

    request = ScaleRequest(
        model=args.model, epochs=args.epochs,
        batches_per_epoch=args.batches_per_epoch, batch_size=args.batch_size,
        max_groups=args.max_groups, datatype=args.datatype, seed=args.seed,
        num_devices=args.devices, partition=args.partition,
        link_gbps=_parse_link_gbps(args.link_gbps),
        hop_latency_cycles=args.hop_latency_cycles,
        trace_max_batch=args.trace_max_batch,
    )
    quiet = args.format == "json"
    result = _session_for(args).submit(request, progress=None if quiet else print)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    payload = result.result
    print(format_scaling_report(ScalingReport.from_dict(payload.report)))
    print(_engine_line(result))
    return 0


def _coerce_knob_value(value: str):
    """Parse one ``--values`` item into the type its knob expects.

    Booleans and integers first, then floats (bandwidth knobs such as
    ``dram_bandwidth_gbps`` take fractional GB/s), then bare strings
    (datatypes).
    """
    text = value.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.api.schema import SweepRequest
    from repro.explore.report import format_points_table, study_result_from_dict

    values = [_coerce_knob_value(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise CliError(f"--values {args.values!r} contains no knob values")
    request = SweepRequest(
        model=args.model, knob=args.knob, values=values,
        epochs=args.epochs, max_groups=args.max_groups, seed=args.seed,
        trace_max_batch=args.trace_max_batch,
    )
    result = _session_for(args).submit(request, progress=print)
    study = study_result_from_dict(result.result.study)
    print(format_points_table(study, title=f"{args.model}: {args.knob} sweep"))
    print(format_engine_stats(study.stats))
    return 0


def _command_explore(args: argparse.Namespace) -> int:
    from repro.api.schema import ExploreRequest
    from repro.explore.report import (
        format_study_report,
        study_result_from_dict,
        study_to_csv,
        study_to_json,
    )
    from repro.explore.runner import StudyResumeError
    from repro.explore.spec import StudySpec, parse_objectives

    if args.resume and not args.study_dir:
        raise CliError("--resume requires --study-dir (that is where the "
                       "study manifest lives)")
    if args.output and not Path(args.output).parent.is_dir():
        # Checked before the study runs, not after hours of simulation.
        raise CliError(
            f"--output directory {Path(args.output).parent} does not exist"
        )
    # Spec problems (including a missing spec file) are usage errors;
    # anything raised later (training, simulation) is a real fault and
    # keeps its traceback.
    try:
        spec = StudySpec.from_json(args.spec)
        if args.sample is not None:
            spec.mode = "random"
            spec.sample = args.sample
        if args.seed is not None:
            spec.seed = args.seed
        spec.validate()
        objectives = None
        if args.objectives:
            objectives = [name.strip() for name in args.objectives.split(",")
                          if name.strip()]
            parse_objectives(objectives)   # fail before any training starts
    except (ValueError, OSError) as exc:
        # OSError covers a missing spec file, a directory passed as the
        # spec path, permission problems, etc.
        raise CliError(str(exc)) from exc

    # Progress lines would corrupt machine-readable stdout output.
    quiet = args.format in ("json", "csv") and not args.output
    if not quiet:
        count = spec.space_size
        if spec.mode == "random":
            count = min(spec.sample, count)
        print(f"Study '{spec.name}': {count} of {spec.space_size} "
              f"points ({spec.mode}), objectives "
              f"{', '.join(objectives or spec.objectives)}")
    request = ExploreRequest(
        spec=spec.to_dict(),
        study_dir=args.study_dir,
        resume=args.resume,
        objectives=objectives,
    )
    try:
        result = _session_for(args).submit(
            request, progress=None if quiet else print
        )
    except StudyResumeError as exc:
        raise CliError(str(exc)) from exc
    study = study_result_from_dict(result.result.study)

    if args.format == "json":
        text = study_to_json(study, objectives)
    elif args.format == "csv":
        text = study_to_csv(study, objectives)
    else:
        text = format_study_report(study, objectives)
    if args.output:
        Path(args.output).write_text(text if text.endswith("\n") else text + "\n")
        print(f"Wrote {args.output}")
    else:
        print(text)
    return 0


def _load_diff_side(path_text: str, mode: str):
    """Load one ``repro diff`` operand: ``(detected mode, payload, label)``.

    Detection order for ``mode="auto"``: a directory holding a study
    manifest is a study; a directory of ``BENCH_*.json`` is a bench set;
    a ``BENCH_*`` file or a JSON object with a ``benchmark`` key is a
    bench document; everything else is a study artifact (manifest,
    study document, or ``.jsonl`` segment).
    """
    import json as _json

    from repro.lineage.bench import load_bench_side
    from repro.lineage.snapshot import ManifestSnapshot, SnapshotError

    path = Path(path_text)
    if not path.exists():
        raise CliError(f"{path}: no such file or directory")
    detected = mode
    if mode == "auto":
        if path.is_dir():
            if (path / "manifest.json").exists() or (
                path / "manifest.segment.jsonl"
            ).exists():
                detected = "study"
            elif any(path.glob("BENCH_*.json")):
                detected = "bench"
            else:
                raise CliError(
                    f"{path}: directory holds neither a study manifest nor "
                    f"BENCH_*.json files; pass --mode explicitly"
                )
        elif path.name.startswith("BENCH_"):
            detected = "bench"
        elif path.suffix == ".jsonl":
            detected = "study"
        else:
            try:
                payload = _json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                raise CliError(f"{path}: not valid JSON ({exc})") from exc
            detected = (
                "bench"
                if isinstance(payload, dict) and "benchmark" in payload
                else "study"
            )
    try:
        if detected == "bench":
            label, docs = load_bench_side(path)
            return "bench", docs, label
        snapshot = ManifestSnapshot.from_file(path)
        return "study", snapshot.to_payload(), snapshot.source
    except (SnapshotError, ValueError, OSError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _diff_rows(diff) -> Tuple[List[str], List[List[str]]]:
    """Column headers + formatted rows for a :class:`DiffResult`."""
    def num(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, bool):
            return str(value)
        return f"{value:.4g}"

    if diff.mode == "bench":
        columns = ["benchmark", "metric", "committed", "fresh", "bound",
                   "gate", "class"]
        rows = [
            [row["benchmark"], row["metric"], num(row["a"]), num(row["b"]),
             num(row["bound"]), "yes" if row["gate"] else "no",
             row["classification"]]
            for row in diff.deltas
        ]
        return columns, rows
    columns = ["point", "metric", "a", "b", "delta", "relative", "class"]
    rows = [
        [d["label"], d["metric"], num(d["a"]), num(d["b"]), num(d["delta"]),
         "-" if d["relative"] is None else f"{d['relative']:+.1%}",
         d["classification"]]
        for d in diff.deltas
    ]
    return columns, rows


def _format_diff_report(diff) -> str:
    """The human-readable ``repro diff`` report (``--format table``)."""
    summary = diff.summary
    lines = [f"Diff ({diff.mode}): {diff.a} -> {diff.b}"]
    if diff.mode == "bench":
        lines.append(
            f"Watched {summary['watched']} metric(s): "
            f"{summary['improved']} improved, {summary['held']} held, "
            f"{summary['regressed']} regressed "
            f"({summary['gated_regressions']} gated)"
        )
    else:
        lines.append(
            f"Points: {summary['matched_points']} matched, "
            f"{summary['added_points']} added, "
            f"{summary['removed_points']} removed"
        )
        lines.append(
            f"Metric deltas: {summary['improved']} improved, "
            f"{summary['regressed']} regressed, {summary['changed']} changed "
            f"(tolerance {diff.tolerance:g})"
        )
        if summary.get("fingerprints_match") is False:
            lines.append("WARNING: spec fingerprints differ between sides")
    if diff.identical:
        lines.append("No differences: the snapshots are identical.")
    columns, rows = _diff_rows(diff)
    if rows:
        title = "Watched metrics" if diff.mode == "bench" else "Changed metrics"
        lines.append("")
        lines.append(format_table(title, columns, rows))
    if diff.mode == "study" and diff.frontier.get("computed"):
        frontier = diff.frontier
        lines.append("")
        lines.append(
            f"Frontier ({', '.join(frontier['objectives'])}): "
            f"{len(frontier['held'])} held, "
            f"{len(frontier['entered'])} entered, "
            f"{len(frontier['left'])} left"
        )
        for point_id in frontier["entered"]:
            lines.append(f"  + {point_id} entered the frontier")
        for point_id in frontier["left"]:
            lines.append(f"  - {point_id} left the frontier")
    if diff.attribution:
        lines.append("")
        lines.append("Attribution (single axes explaining every change):")
        for entry in diff.attribution:
            lines.append(
                f"  {entry['axis']} = {', '.join(entry['values'])}"
            )
    for warning in diff.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


def _format_diff_markdown(diff) -> str:
    """The ``repro diff --format markdown`` report (PR-comment ready)."""
    summary = diff.summary
    lines = [f"### Diff ({diff.mode}): `{diff.a}` → `{diff.b}`", ""]
    if diff.identical:
        lines.append("No differences: the snapshots are identical.")
    else:
        lines.append(
            f"**{summary.get('regressed', 0)} regressed**, "
            f"{summary.get('improved', 0)} improved "
            f"(tolerance {diff.tolerance:g})"
        )
    columns, rows = _diff_rows(diff)
    if rows:
        lines.append("")
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "---|" * len(columns))
        for row in rows:
            lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    if diff.mode == "study" and diff.frontier.get("computed"):
        frontier = diff.frontier
        for point_id in frontier["entered"]:
            lines.append(f"- `{point_id}` entered the frontier")
        for point_id in frontier["left"]:
            lines.append(f"- `{point_id}` left the frontier")
    for warning in diff.warnings:
        lines.append(f"- warning: {warning}")
    return "\n".join(lines)


def _command_diff(args: argparse.Namespace) -> int:
    from repro.api.schema import DiffRequest

    mode_a, payload_a, label_a = _load_diff_side(args.a, args.mode)
    mode_b, payload_b, label_b = _load_diff_side(args.b, args.mode)
    if mode_a != mode_b:
        raise CliError(
            f"cannot diff a {mode_a} artifact ({args.a}) against a "
            f"{mode_b} artifact ({args.b}); pass --mode to force one"
        )
    split = lambda text: [part.strip() for part in text.split(",") if part.strip()]
    request = DiffRequest(
        a=payload_a,
        b=payload_b,
        mode=mode_a,
        tolerance=args.tolerance,
        ignore=split(args.ignore) if args.ignore else None,
        objectives=split(args.objectives) if args.objectives else None,
        a_label=label_a,
        b_label=label_b,
    )
    result = _session_for(args).submit(request)
    diff = result.result
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    elif args.format == "markdown":
        print(_format_diff_markdown(diff))
    else:
        print(_format_diff_report(diff))
    if args.fail_on:
        count = diff.regressions if args.fail_on == "regressed" else diff.changed
        if count:
            print(f"FAIL: {count} {args.fail_on} entr"
                  f"{'y' if count == 1 else 'ies'} (--fail-on {args.fail_on})")
            return 1
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.api.service import serve

    return serve(host=args.host, port=args.port, session=_session_for(args),
                 study_root=args.study_root, access_log=args.access_log,
                 job_retention=args.job_retention, audit_log=args.audit_log,
                 max_body_mb=args.max_body_mb,
                 drain_seconds=args.drain_seconds)


def _jobs_request(url: str, method: str = "GET", payload=None):
    """One JSON round-trip to the server; HTTP errors become CliError."""
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        try:
            detail = json.loads(exc.read()).get("error", "")
        except ValueError:
            detail = ""
        raise CliError(
            f"{method} {url} failed with HTTP {exc.code}"
            + (f": {detail}" if detail else "")
        ) from None
    except urllib.error.URLError as exc:
        raise CliError(
            f"cannot reach {url} ({exc.reason}); is 'repro serve' running?"
        ) from None


def _format_job_row(job: dict) -> list:
    """One ``jobs list`` table row from a job-record document."""
    runtime = "-"
    if job.get("started_s") is not None:
        end = job.get("finished_s")
        if end is not None:
            runtime = f"{end - job['started_s']:.1f}s"
        else:
            runtime = "running"
    return [job["job_id"], job["request_kind"], job["state"],
            job.get("events", 0), runtime,
            "yes" if job.get("cancel_requested") else "-"]


def _command_jobs(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    if args.jobs_command == "list":
        payload = _jobs_request(
            base + "/v1/jobs"
            + (f"?state={args.state}" if args.state else "")
        )
        if args.format == "json":
            print(json.dumps(payload, indent=2))
            return 0
        rows = [_format_job_row(job) for job in payload["jobs"]]
        print(format_table(
            f"Jobs on {base} (queue depth {payload['queue_depth']})",
            ["job id", "kind", "state", "events", "runtime", "cancel?"],
            rows,
        ))
        return 0
    if args.jobs_command == "show":
        print(json.dumps(
            _jobs_request(f"{base}/v1/jobs/{args.job_id}"), indent=2
        ))
        return 0
    if args.jobs_command == "cancel":
        record = _jobs_request(
            f"{base}/v1/jobs/{args.job_id}/cancel", method="POST"
        )
        print(f"job {record['job_id']}: {record['state']}"
              + (" (cancellation requested)"
                 if record.get("cancel_requested")
                 and record["state"] == "running" else ""))
        return 0
    return _command_jobs_watch(base, args.job_id, args.since)


def _command_jobs_watch(base: str, job_id: str, since: int) -> int:
    """Follow one job's SSE stream, printing each event as it arrives.

    The server ends the stream when the job reaches a terminal state;
    reconnecting with ``--since`` resumes after the last printed
    sequence number.  Exit code 0 for ``succeeded``, 1 otherwise.
    """
    import urllib.error
    import urllib.request

    url = f"{base}/v1/jobs/{job_id}/events"
    if since:
        url += f"?since={since}"
    final_state = None
    try:
        with urllib.request.urlopen(
            urllib.request.Request(url), timeout=3600
        ) as response:
            event_type, data = None, None
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith(":"):
                    continue   # keep-alive comment
                if line.startswith("event: "):
                    event_type = line[len("event: "):]
                elif line.startswith("data: "):
                    data = line[len("data: "):]
                elif not line and event_type is not None:
                    event = json.loads(data) if data else {}
                    if event_type == "state":
                        state = event.get("state")
                        print(f"[{event.get('seq', '?')}] state: {state}")
                        if state in ("succeeded", "failed", "cancelled"):
                            final_state = state
                    elif event_type == "progress":
                        print(f"[{event.get('seq', '?')}] "
                              f"{event.get('message', '')}")
                    else:
                        detail = {k: v for k, v in event.items()
                                  if k not in ("seq", "time_s", "type")}
                        print(f"[{event.get('seq', '?')}] {event_type}: "
                              + json.dumps(detail, sort_keys=True))
                    event_type, data = None, None
    except urllib.error.HTTPError as exc:
        try:
            detail = json.loads(exc.read()).get("error", "")
        except ValueError:
            detail = ""
        raise CliError(
            f"GET {url} failed with HTTP {exc.code}"
            + (f": {detail}" if detail else "")
        ) from None
    except urllib.error.URLError as exc:
        raise CliError(
            f"cannot reach {url} ({exc.reason}); is 'repro serve' running?"
        ) from None
    if final_state is None:
        # Stream ended without a terminal state event (e.g. resumed with
        # --since past it); ask the record directly.
        final_state = _jobs_request(f"{base}/v1/jobs/{job_id}")["state"]
        print(f"state: {final_state}")
    return 0 if final_state == "succeeded" else 1


def _command_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.schema import TelemetryRecordError
    from repro.telemetry.view import render_trace_trees, summarize_by_name

    if not Path(args.log).exists():
        raise CliError(f"telemetry log {args.log!r} does not exist")
    try:
        print(render_trace_trees(
            args.log, trace_id=args.trace_id, min_ms=args.min_ms,
        ))
        if args.summary:
            rows = [
                [entry["name"], entry["count"],
                 f"{entry['total_s']:.4f}", f"{entry['self_s']:.4f}"]
                for entry in summarize_by_name(args.log)
            ]
            print(format_table(
                "Per-span-name profile (heaviest self time first)",
                ["span", "count", "total s", "self s"],
                rows,
            ))
    except (TelemetryRecordError, ValueError, OSError) as exc:
        # A malformed log, an empty directory or an unmatched --trace-id
        # is a usage problem, not an internal fault.
        raise CliError(str(exc)) from exc
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    from repro.api.schema import SchemaError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-models":
            return _command_list_models()
        if args.command == "simulate":
            return _command_simulate(args)
        if args.command == "roofline":
            return _command_roofline(args)
        if args.command == "scale":
            return _command_scale(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "explore":
            return _command_explore(args)
        if args.command == "diff":
            return _command_diff(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "jobs":
            return _command_jobs(args)
        if args.command == "trace":
            return _command_trace(args)
    except NotADirectoryError as exc:
        # e.g. --cache-dir pointing at an existing file.
        parser.error(str(exc))
    except SchemaError as exc:
        # An invalid request document (bad model, knob value, hierarchy
        # parameter, spec field) — a usage error naming the bad field.
        parser.error(str(exc))
    except CliError as exc:
        # invalid spec, knob value, objective or stale study manifest;
        # internal errors keep their traceback instead of landing here.
        parser.error(str(exc))
    parser.error(f"unknown command {args.command!r}")
    return 2

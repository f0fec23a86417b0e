"""Repository benchmark: `repro simulate` cold and warm over the Fig. 13
models, and one `repro explore` design-space study.

Usage, from the repository root::

    python3 perfbench/run.py --workload simulate_cold --seed 0 --seconds 20 --trace 0

Load: one client in a closed loop.  The next request starts when the
previous program process has exited, so at most one program process runs
at a time.  The seed reaches the program only as each request's
``--seed`` or the study spec's ``seed``.  Training is pinned to the CLI
defaults (2 epochs x 2 batches of 8, ``--max-groups 64``).

simulate_cold
    ``repro simulate <m>`` as a fresh process for each of the eight
    Fig. 13 models, against an empty ``--cache-dir``: every stage runs
    once per request.
simulate_warm
    The same requests against a cache dir filled by an untimed priming
    pass: every layer is a disk hit and the scheduling kernel never runs.
explore_study
    One ``repro explore`` process with a fresh ``--study-dir`` over 32
    points: resnet50 and squeezenet x rows x staging x datatype x the
    ``traced`` and ``random:0.7`` sparsity scenarios.

A run repeats the workload's request list (a "round") until ``--seconds``
have passed.  Before that, untimed, it sets up three times and reports
the median as ``setup_s``: each set-up pass fills a fresh byte-code cache
with one ``import repro.cli``, and on simulate_warm also runs the priming
pass.  Program processes run like an installed package, with byte-code
cached in the run's temp dir and ``REPRO_*`` variables cleared.

``--trace 0`` reports the end-to-end metrics.  ``wall_s`` is the time to
run the request list once, each request taken at its fastest over the
run's rounds; ``request_p50_s`` is the median of those per-request
times; ``peak_rss_mb`` is the largest resident set of any request
process.  ``--trace 1`` alternates untraced rounds with traced ones, in
which each request runs under ``traced_cli.py``: wrappers time each
layer's entry point from outside the program.  Per-layer metrics are
per-round sums, median over traced rounds; ``trace.overhead`` is the
traced ``wall_s`` over the untraced one, minus one.

Every request is checked: it exits 0; every speedup lies between 1 and
the staging depth; its result equals the reference pass for the same
request (the priming pass on simulate_warm, else the first round); at
the default seed its result equals ``expected.json``; a study reports
all 32 points.  ``--write-expected`` (default seed only) stores the
reference results as the new expected values instead.

All cache, study and spec files live in a temp dir under
``perfbench/.work`` that is removed at exit; a record of the run, with
the traced spans, is written under ``perfbench/out``.  The last line of
stdout is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from spans import merged, rollup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("simulate_cold", "simulate_warm", "explore_study")
DEFAULT_SEED = 0
SETUP_PASSES = 3
REQUEST_TIMEOUT_S = 150

#: The Fig. 13 models in figure order, as ``repro.models.registry.PAPER_MODELS``
#: lists them today; fixed here so the workload cannot drift with the program.
PAPER_MODELS = [
    "alexnet", "densenet121", "squeezenet", "vgg16",
    "img2txt", "resnet50_DS90", "resnet50_SM90", "snli",
]
TRAINING = ["--epochs", "2", "--batches-per-epoch", "2", "--batch-size", "8",
            "--max-groups", "64"]
STUDY_SPEC = {
    "name": "perfbench-explore",
    "workloads": ["resnet50", "squeezenet"],
    "knobs": {"rows": [4, 16], "staging": [2, 3],
              "datatype": ["fp32", "bfloat16"]},
    "scenarios": ["traced", "random:0.7"],
    "mode": "cartesian",
    "epochs": 2, "batches_per_epoch": 2, "batch_size": 8, "max_groups": 64,
}
STUDY_POINTS = 32

#: The paper's headline geomeans over its own full-size trained models.
PAPER_CLAIMS = {"sim.speedup.Total": 1.95, "sim.core_energy_eff": 1.89}

END_TO_END = {
    "wall_s": "s", "request_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}
#: Per-layer metric -> (span name, rollup field); busy = inside the call,
#: self = busy minus wrapped children.
LAYER_SPANS = {
    "cli.import_s": ("cli.import", "busy_s"),
    "cli.self_s": ("cli", "self_s"),
    "api.submit.self_s": ("api.submit", "self_s"),
    "training.trace.busy_s": ("training.trace", "busy_s"),
    "training.trace.calls": ("training.trace", "calls"),
    "nn.conv_forward.busy_s": ("nn.conv_forward", "busy_s"),
    "nn.conv_backward.busy_s": ("nn.conv_backward", "busy_s"),
    "training.collect.busy_s": ("training.collect", "busy_s"),
    "simulation.streams.busy_s": ("simulation.streams", "busy_s"),
    "core.kernel.busy_s": ("core.kernel", "busy_s"),
    "core.kernel.calls": ("core.kernel", "calls"),
    "simulation.finalize.busy_s": ("simulation.finalize", "busy_s"),
    "energy.report.busy_s": ("energy.report", "busy_s"),
    "engine.self_s": ("engine", "self_s"),
    "engine.fingerprint.busy_s": ("engine.fingerprint", "busy_s"),
    "engine.cache_store.busy_s": ("engine.cache_store", "busy_s"),
    "engine.cache_load.busy_s": ("engine.cache_load", "busy_s"),
    "explore.run.self_s": ("explore.run", "self_s"),
}
PER_LAYER_UNITS = {
    **{name: "count" if field == "calls" else "s"
       for name, (_, field) in LAYER_SPANS.items()},
    "engine.hit_rate": "ratio",
    "engine.layers_simulated": "count",
    "engine.cache_hits": "count",
    "trace.overhead": "ratio",
    "sim.speedup.AxW": "x", "sim.speedup.AxG": "x", "sim.speedup.WxG": "x",
    "sim.speedup.Total": "x", "sim.core_energy_eff": "x",
    "sim.potential.Total": "x",
    "sim.points": "count", "sim.frontier_size": "count",
}
SIM_METRICS = [name for name in PER_LAYER_UNITS if name.startswith("sim.")]


class SetupError(RuntimeError):
    """The program could not be set up; the run reports no result."""


@dataclass
class Request:
    """One program invocation: ``repro <argv>``."""

    key: str
    argv: List[str]


@dataclass
class Outcome:
    """What one request did: timing, memory, output and check failures."""

    request: Request
    seconds: float
    rss_mb: float
    problems: List[str] = field(default_factory=list)
    result: Optional[Dict] = None
    engine: Optional[Dict] = None
    spans: Optional[Dict] = None


@dataclass
class Round:
    """One pass over the workload's request list."""

    seconds: float
    traced: bool
    outcomes: List[Outcome]


def child_env(pycache: Path) -> Dict[str, str]:
    """Environment for program processes: this checkout's source, no
    ``REPRO_*`` overrides, byte-code cached under ``pycache``, and one
    BLAS thread, so a request's time does not depend on how many threads
    the host's other tenants leave it (one thread measured no slower)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_process(argv: List[str], env: Dict[str, str], stdout: Path, stderr: Path):
    """Run one process to completion: ``(exit code, seconds, peak RSS MB)``."""
    with stdout.open("w") as out, stderr.open("w") as err:
        start = time.perf_counter()
        process = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(REQUEST_TIMEOUT_S, process.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, seconds, usage.ru_maxrss / 1024.0


def simulate_requests(seed: int, caches: Path) -> List[Request]:
    """One request per model, each with a cache dir of its own: two models
    with identical traces must not serve each other's cold requests."""
    return [
        Request(model, ["simulate", model, *TRAINING, "--seed", str(seed),
                        "--cache-dir", str(caches / model), "--format", "json"])
        for model in PAPER_MODELS
    ]


def run_round(requests: List[Request], env: Dict[str, str], directory: Path,
              traced: bool) -> Round:
    """Run the requests back to back, one process at a time."""
    directory.mkdir()
    launched = []
    start = time.perf_counter()
    for index, request in enumerate(requests):
        stem = directory / f"{index}-{request.key}"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    f"{stem}.spans", "--", *request.argv]
        else:
            argv = [sys.executable, "-m", "repro", *request.argv]
        code, seconds, rss = run_process(
            argv, env, stem.with_suffix(".out"), stem.with_suffix(".err"))
        launched.append((request, stem, code, seconds, rss))
    elapsed = time.perf_counter() - start
    outcomes = [read_outcome(request, stem, traced, code, seconds, rss)
                for request, stem, code, seconds, rss in launched]
    return Round(elapsed, traced, outcomes)


def read_outcome(request: Request, stem: Path, traced: bool, code: int,
                 seconds: float, rss: float) -> Outcome:
    """Parse one request's output files into an :class:`Outcome`."""
    outcome = Outcome(request, seconds, rss)
    spans = Path(f"{stem}.spans")
    if traced and spans.exists():   # absent only if the request was killed
        outcome.spans = json.loads(spans.read_text())
    if code != 0:
        tail = stem.with_suffix(".err").read_text().strip().splitlines()[-1:]
        outcome.problems.append(f"exit code {code}: {' '.join(tail)}")
        return outcome
    try:
        document = json.loads(stem.with_suffix(".out").read_text())
        if request.argv[0] == "simulate":
            outcome.result = document["result"]
        else:
            outcome.result = {"points": document["points"],
                              "frontier": document["frontier"]}
        outcome.engine = document["engine"]
    except (ValueError, KeyError, TypeError) as exc:
        outcome.problems.append(f"unreadable output: {exc!r}")
    return outcome


def speedup_bounds(result: Dict):
    """``(label, speedup, staging depth)`` for every reported speedup."""
    if "points" in result:
        for point in result["points"]:
            depth = dict(point["knobs"])["staging"]
            yield point["label"], point["metrics"]["speedup"], depth
        return
    depth = int(re.search(r"staging depth (\d+)", result["config"]).group(1))
    for operation, speedup in result["speedups"].items():
        yield operation, speedup, depth


def close(a, b) -> bool:
    """Structural equality, with floats equal to 1e-9 relative."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9)
    return a == b


def check(outcome: Outcome, reference: Optional[Dict],
          expected: Optional[Dict]) -> None:
    """Append every failed output check to ``outcome.problems``."""
    result = outcome.result
    if result is None:
        return
    for label, speedup, depth in speedup_bounds(result):
        if not 1.0 - 1e-9 <= speedup <= depth + 1e-9:
            outcome.problems.append(
                f"{label}: speedup {speedup} outside [1, {depth}]")
    if "points" in result and len(result["points"]) != STUDY_POINTS:
        outcome.problems.append(
            f"{len(result['points'])} study points, expected {STUDY_POINTS}")
    if reference is not None and result != reference:
        outcome.problems.append("result differs from the reference pass")
    if expected is not None and not close(result, expected):
        outcome.problems.append(
            f"result differs from {EXPECTED.name} at seed {DEFAULT_SEED}")


def layer_metrics(round_: Round) -> Dict[str, float]:
    """Per-layer sums over one traced round."""
    spans, counts = merged(o.spans for o in round_.outcomes if o.spans)
    layers = rollup(spans)
    metrics = {name: layers.get(span, {}).get(field, 0)
               for name, (span, field) in LAYER_SPANS.items()}
    loads = layers.get("engine.cache_load", {}).get("calls", 0)
    metrics["engine.hit_rate"] = (
        counts.get("engine.cache_load.hits", 0) / loads if loads else 0.0)
    for name in ("layers_simulated", "cache_hits"):
        metrics[f"engine.{name}"] = sum(
            (o.engine or {}).get(name, 0) for o in round_.outcomes)
    return metrics


def best_times(rounds: List[Round]) -> List[float]:
    """Each request's fastest time over the rounds, in request-list order.

    The host's other tenants slow whole stretches of a run by up to half;
    a request's best time over several rounds spread across the run
    filters that out, where a median of rounds would not.
    """
    return [min(r.outcomes[index].seconds for r in rounds)
            for index in range(len(rounds[0].outcomes))]


def modelled_metrics(references: Dict[str, Dict]) -> Dict[str, float]:
    """Deterministic results of the modelled design; 0 where a metric does
    not apply to the workload."""
    metrics = dict.fromkeys(SIM_METRICS, 0)
    if "study" in references:
        metrics["sim.points"] = len(references["study"]["points"])
        metrics["sim.frontier_size"] = len(references["study"]["frontier"])
    elif all(model in references for model in PAPER_MODELS):
        results = [references[model] for model in PAPER_MODELS]
        geomean = statistics.geometric_mean
        for operation in ("AxW", "AxG", "WxG", "Total"):
            metrics[f"sim.speedup.{operation}"] = geomean(
                r["speedups"][operation] for r in results)
        metrics["sim.core_energy_eff"] = geomean(
            r["core_energy_efficiency"] for r in results)
        metrics["sim.potential.Total"] = geomean(
            r["potentials"]["Total"] for r in results)
    return metrics


class Benchmark:
    """One run of one workload: set-up, timed rounds, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 work: Path, expected: Dict[str, Dict]):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.expected = expected
        self.spec = work / "spec.json"
        self.env: Dict[str, str] = {}
        self.primed: Optional[Path] = None
        self.setup_seconds: List[float] = []
        self.setup_rounds: List[Round] = []
        self.rounds: List[Round] = []

    def requests(self, directory: Path) -> List[Request]:
        if self.workload == "explore_study":
            return [Request("study", [
                "explore", str(self.spec), "--study-dir",
                str(directory / "study"), "--format", "json"])]
        if self.workload == "simulate_warm":
            return simulate_requests(self.seed, self.primed)
        return simulate_requests(self.seed, directory / "cache")

    def set_up(self) -> None:
        self.spec.write_text(json.dumps({**STUDY_SPEC, "seed": self.seed}))
        for index in range(SETUP_PASSES):
            directory = self.work / f"setup{index}"
            directory.mkdir()
            self.env = child_env(self.work / f"pycache{index}")
            start = time.perf_counter()
            code, _, _ = run_process(
                [sys.executable, "-c", "import repro.cli"], self.env,
                directory / "import.out", directory / "import.err")
            if code != 0:
                raise SetupError(
                    f"'import repro.cli' failed with exit code {code}: "
                    + (directory / "import.err").read_text()[-2000:])
            if self.workload == "simulate_warm":
                self.primed = directory / "cache"
                self.setup_rounds.append(run_round(
                    simulate_requests(self.seed, self.primed), self.env,
                    directory / "prime", traced=False))
            self.setup_seconds.append(time.perf_counter() - start)

    def measure(self) -> None:
        kinds = (False, True) if self.trace else (False,)
        start = time.perf_counter()
        while (time.perf_counter() - start < self.seconds
               or len(self.rounds) < len(kinds)):
            directory = self.work / f"round{len(self.rounds)}"
            traced = kinds[len(self.rounds) % len(kinds)]
            self.rounds.append(run_round(
                self.requests(directory), self.env, directory, traced))

    def outcomes(self) -> List[Outcome]:
        return [o for r in self.setup_rounds + self.rounds for o in r.outcomes]

    def check_all(self) -> Dict[str, Dict]:
        """Check every request; return the reference result per request."""
        references: Dict[str, Dict] = {}
        for outcome in self.outcomes():
            key = outcome.request.key
            check(outcome, references.get(key), self.expected.get(key))
            if key not in references and outcome.result is not None:
                references[key] = outcome.result
        return references

    def metrics(self, references: Dict[str, Dict]) -> Dict[str, float]:
        untraced = [r for r in self.rounds if not r.traced]
        if not self.trace:
            fastest = best_times(untraced)
            return {
                "wall_s": sum(fastest),
                "request_p50_s": statistics.median(fastest),
                "peak_rss_mb": max(
                    o.rss_mb for r in untraced for o in r.outcomes),
                "setup_s": statistics.median(self.setup_seconds),
            }
        traced = [r for r in self.rounds if r.traced]
        per_round = [layer_metrics(r) for r in traced]
        metrics = {name: statistics.median(m[name] for m in per_round)
                   for name in per_round[0]}
        metrics["trace.overhead"] = (
            sum(best_times(traced)) / sum(best_times(untraced)) - 1.0)
        metrics.update(modelled_metrics(references))
        return metrics


def report(bench: Benchmark, references: Dict[str, Dict],
           metrics: Dict[str, float]) -> None:
    """Human-readable lines before the result line."""
    for index, seconds in enumerate(bench.setup_seconds):
        print(f"setup pass {index + 1}: {seconds:.3f} s")
    for index, round_ in enumerate(bench.rounds):
        kind = "traced" if round_.traced else "untraced"
        print(f"round {index + 1} ({kind}): {round_.seconds:.3f} s")
        for o in round_.outcomes:
            status = "; ".join(o.problems) or "ok"
            print(f"  {o.request.key:<14} {o.seconds:8.3f} s "
                  f"{o.rss_mb:8.1f} MB  {status}")
    untraced = [r for r in bench.rounds if not r.traced]
    units = PER_LAYER_UNITS if bench.trace else END_TO_END
    print(f"{'per-layer' if bench.trace else 'end-to-end'} metrics "
          f"({sum(len(r.outcomes) for r in untraced)} untraced requests in "
          f"{len(untraced)} rounds, {len(bench.rounds) - len(untraced)} "
          f"traced rounds):")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    sim = modelled_metrics(references)
    if sim["sim.speedup.Total"]:
        print(f"modelled design, geomean over the {len(PAPER_MODELS)} Fig. 13 "
              f"models at seed {bench.seed}:")
        for name, claim in PAPER_CLAIMS.items():
            print(f"  {name:<28} {sim[name]:>8.3f}x   paper {claim:.2f}x")
        print("  A comparison across different workloads: the paper measured "
              "its full-size trained models, this repo runs scaled-down "
              "stand-ins. The repo holds no reference results for them, so "
              "the model is unvalidated and no error figure is given.")
    if bench.trace:
        for premise, holds in premises(bench.workload, metrics):
            print(f"premise {premise}: {'holds' if holds else 'DOES NOT HOLD'}")


def premises(workload: str, metrics: Dict[str, float]):
    """``(statement, holds)`` for each premise the workload was chosen on."""
    if workload == "simulate_warm":
        yield "engine.layers_simulated = 0", metrics["engine.layers_simulated"] == 0
        yield "core.kernel.calls = 0", metrics["core.kernel.calls"] == 0
        return
    yield "engine.cache_hits = 0", metrics["engine.cache_hits"] == 0
    if workload == "simulate_cold":
        yield ("training.trace.busy_s + cli.import_s > core.kernel.busy_s",
               metrics["training.trace.busy_s"] + metrics["cli.import_s"]
               > metrics["core.kernel.busy_s"])
    else:
        times = {n: metrics[n] for n, u in PER_LAYER_UNITS.items() if u == "s"}
        yield ("core.kernel.busy_s is the largest layer "
               f"(largest: {max(times, key=times.get)})",
               max(times, key=times.get) == "core.kernel.busy_s")


def write_record(bench: Benchmark, environment: Dict, metrics: Dict) -> None:
    """The run's record and, for a traced run, every request's spans."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{bench.workload}-seed{bench.seed}-trace{int(bench.trace)}"
    record = {
        "environment": environment,
        "setup_seconds": bench.setup_seconds,
        "rounds": [
            {"seconds": r.seconds, "traced": r.traced, "requests": [
                {"key": o.request.key, "seconds": o.seconds,
                 "rss_mb": o.rss_mb, "problems": o.problems,
                 "engine": o.engine} for o in r.outcomes]}
            for r in bench.rounds
        ],
        "metrics": metrics,
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))
    if bench.trace:
        with open(f"{stem}.spans.jsonl", "w") as handle:
            for index, round_ in enumerate(bench.rounds):
                for o in round_.outcomes:
                    if o.spans:
                        handle.write(json.dumps({
                            "round": index, "request": o.request.key, **o.spans
                        }) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="store this run's results in expected.json "
                             "instead of checking them (default seed only)")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if args.write_expected and args.seed != DEFAULT_SEED:
        parser.error(f"--write-expected needs --seed {DEFAULT_SEED}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # SIGTERM becomes an exception, so the running child is killed and
    # reaped and the temp dir removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg_before": os.getloadavg(),
    }
    expected = {}
    if args.seed == DEFAULT_SEED and EXPECTED.exists() and not args.write_expected:
        expected = json.loads(EXPECTED.read_text())
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    bench = Benchmark(args.workload, args.seed, args.seconds,
                      bool(args.trace), work, expected)
    try:
        bench.set_up()
        bench.measure()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass   # another run's temp dir is still there
    environment["loadavg_after"] = os.getloadavg()
    print("environment: " + json.dumps(environment))
    references = bench.check_all()
    if args.write_expected:
        stored = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        stored.update(references)
        EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(f"wrote {sorted(references)} to {EXPECTED}")
    outcomes = bench.outcomes()
    failed = sum(1 for o in outcomes if o.problems)
    metrics = bench.metrics(references)
    report(bench, references, metrics)
    write_record(bench, environment, metrics)
    units = PER_LAYER_UNITS if bench.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

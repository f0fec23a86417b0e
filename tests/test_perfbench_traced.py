"""perfbench's traced mode still finds the entry points it wraps.

``perfbench/traced_cli.py`` times a request from outside the program by
wrapping entry points by name (``LayerSimulator.streams_for_trace``,
``Accelerator.run_operations_batched`` and the rest).  If a refactor
renames one, or the request stops calling it, a ``--trace 1`` benchmark
run crashes or reads 0 s for that stage.  This runs one small traced
``simulate`` request and checks that it records every span the
benchmark reports except ``explore.run``, which only a study calls, and
one small traced ``explore`` request, whose training must still pass
through ``repro.api.session.trace_workload``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def reported_span_names(monkeypatch):
    """The span names behind perfbench's per-layer metrics (``LAYER_SPANS``)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)   # for its dataclasses
    spec.loader.exec_module(run)
    return {span for span, _ in run.LAYER_SPANS.values()}


def traced_span_names(tmp_path, *repro_args):
    """Run one CLI request under ``traced_cli.py``; its span names."""
    spans_path = tmp_path / "spans.json"
    completed = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans_path), "--",
         *repro_args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return [name for name, _, _, _ in json.loads(spans_path.read_text())["spans"]]


def test_traced_simulate_records_every_request_span(tmp_path, monkeypatch):
    names = traced_span_names(
        tmp_path, "simulate", "squeezenet", "--epochs", "1",
        "--batches-per-epoch", "1", "--batch-size", "4", "--max-groups", "8",
        "--cache-dir", str(tmp_path / "cache"), "--format", "json",
    )
    assert reported_span_names(monkeypatch) - set(names) == {"explore.run"}
    assert names.count("simulation.streams") == names.count("simulation.finalize")


def test_traced_explore_records_training_and_the_study(tmp_path):
    spec_path = tmp_path / "one.json"
    spec_path.write_text(json.dumps({
        "name": "one-point", "workloads": ["snli"], "knobs": {"staging": [2]},
        "epochs": 1, "batches_per_epoch": 1, "batch_size": 4, "max_groups": 8,
    }))
    names = traced_span_names(
        tmp_path, "explore", str(spec_path),
        "--study-dir", str(tmp_path / "study"), "--format", "json",
    )
    assert names.count("training.trace") == 1
    assert names.count("explore.run") == 1

"""Telemetry end-to-end: zero-perturbation, session spans, ``repro trace``.

The overhead-discipline contract of the instrumentation plane: enabling
telemetry must never change a single simulated number (property-tested
bit-identity), sessions must emit a complete span tree plus a metrics
snapshot per request, and the ``repro trace`` subcommand must render any
produced event log back into a tree and a profile.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.api.schema import SimulateRequest
from repro.cli import main
from repro.engine import SimulationEngine
from repro.telemetry import configure, get_tracer
from repro.telemetry.schema import iter_records, validate_file
from repro.telemetry.view import build_trees, load_spans, summarize_by_name
from tests.test_engine_backends import (
    assert_results_identical,
    make_conv_trace,
)


@pytest.fixture(autouse=True)
def _isolated_global_tracer():
    yield
    configure(None)


class TestBitIdentity:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sparsity=st.floats(min_value=0.1, max_value=0.9),
        channels=st.integers(min_value=2, max_value=8),
        size=st.integers(min_value=6, max_value=12),
    )
    def test_enabling_telemetry_never_changes_results(
        self, tmp_path_factory, seed, sparsity, channels, size
    ):
        """Same trace, telemetry off vs on: bit-identical LayerResults."""
        def simulate():
            rng = np.random.default_rng(seed)
            layers = [
                make_conv_trace(rng, name=f"conv{i}", channels=channels,
                                size=size, sparsity=sparsity)
                for i in range(2)
            ]
            engine = SimulationEngine(max_groups=8)
            return engine.simulate_layers(layers)

        configure(None)
        plain = simulate()
        directory = tmp_path_factory.mktemp("tele")
        configure(directory)
        traced = simulate()
        configure(None)

        assert_results_identical(plain, traced)
        # ...and the run actually produced schema-valid span records.
        counts = validate_file(directory)
        assert counts.get("span", 0) >= 1


class TestSessionSpans:
    def test_submit_emits_span_tree_and_metrics_snapshot(self, tmp_path):
        session = Session(telemetry_dir=str(tmp_path))
        session.submit(SimulateRequest(
            model="snli", epochs=1, batches_per_epoch=1, batch_size=4,
        ))
        counts = validate_file(tmp_path)
        assert counts["metrics"] == 1
        spans = load_spans(tmp_path)
        names = {span["name"] for span in spans}
        assert {"session.submit", "session.trace",
                "engine.simulate_layers"} <= names
        (tree,) = build_trees(spans)
        (root,) = tree.roots
        assert root.name == "session.submit"
        assert root.record["attributes"]["kind"] == "simulate"
        assert {child.name for child in root.children} >= {
            "session.trace", "engine.simulate_layers",
        }
        status = session.stats()["telemetry"]
        assert status["enabled"] is True
        assert status["spans_emitted"] == len(spans)

    def test_disabled_session_reports_and_writes_nothing(self, tmp_path):
        session = Session()
        session.submit(SimulateRequest(
            model="snli", epochs=1, batches_per_epoch=1, batch_size=4,
        ))
        assert session.stats()["telemetry"]["enabled"] is False
        assert list(tmp_path.iterdir()) == []


class TestTraceCli:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_simulate_then_trace_round_trip(self, tmp_path, capsys):
        tele = tmp_path / "tele"
        code, _ = self.run_cli(
            capsys, "simulate", "snli", "--epochs", "1",
            "--batches-per-epoch", "1", "--batch-size", "4",
            "--max-groups", "8", "--telemetry-dir", str(tele),
        )
        assert code == 0
        code, out = self.run_cli(capsys, "trace", str(tele))
        assert code == 0
        assert "session.submit" in out
        assert "total" in out and "self" in out

    def test_trace_summary_and_min_ms(self, tmp_path, capsys):
        tracer = configure(tmp_path)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        configure(None)
        code, out = self.run_cli(
            capsys, "trace", str(tmp_path), "--summary", "--min-ms", "0",
        )
        assert code == 0
        assert "outer" in out and "inner" in out
        assert "Per-span-name profile" in out

    def test_trace_missing_path_fails_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", str(tmp_path / "nope")])
        assert excinfo.value.code != 0
        assert "does not exist" in capsys.readouterr().err

    def test_trace_unknown_trace_id_fails_cleanly(self, tmp_path, capsys):
        tracer = configure(tmp_path)
        with tracer.span("only"):
            pass
        configure(None)
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", str(tmp_path), "--trace-id", "feedbeef"])
        assert excinfo.value.code != 0
        assert "no span records" in capsys.readouterr().err


class TestView:
    def test_orphan_spans_promote_to_roots(self, tmp_path):
        tracer = configure(tmp_path)
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        configure(None)
        spans = load_spans(tmp_path)
        child = next(s for s in spans if s["name"] == "child")
        child["parent_id"] = "0000000000000000"   # parent record lost
        (tree,) = build_trees(spans)
        assert {root.name for root in tree.roots} == {"parent", "child"}

    def test_summary_accumulates_per_name(self, tmp_path):
        tracer = configure(tmp_path)
        for _ in range(3):
            with tracer.span("repeat"):
                pass
        configure(None)
        rows = summarize_by_name(tmp_path)
        (row,) = [r for r in rows if r["name"] == "repeat"]
        assert row["count"] == 3
        assert row["total_s"] >= row["self_s"] >= 0.0

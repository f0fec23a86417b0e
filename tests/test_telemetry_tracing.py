"""Tracer/span semantics, JSONL export and rotation, record schema.

The tracing contract: enabled tracers write one schema-valid JSON object
per finished span with correct parent/trace linkage (per thread), the
writer rotates segments by size and prunes the oldest, and the disabled
tracer returns one shared no-op span object so instrumented code paths
cost nothing and write nothing.
"""

import json
import threading

import pytest

from repro.telemetry import (
    Span,
    TelemetryRecordError,
    Tracer,
    configure,
    get_tracer,
    traced,
    validate_record,
)
from repro.telemetry.schema import iter_records, validate_file
from repro.telemetry.tracing import NOOP_SPAN, JsonlWriter


@pytest.fixture(autouse=True)
def _isolated_global_tracer():
    """Every test leaves the process-wide tracer disabled."""
    yield
    configure(None)


@pytest.fixture
def tracer(tmp_path):
    """An enabled tracer writing under ``tmp_path``, closed after the test."""
    tracer = Tracer(tmp_path)
    yield tracer
    tracer.close()


def read_records(directory):
    return [record for _, _, record in iter_records(directory)]


class TestSpans:
    def test_nested_spans_share_trace_and_link_parents(self, tmp_path, tracer):
        with tracer.span("outer", model="snli") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        records = read_records(tmp_path)
        assert [r["name"] for r in records] == ["inner", "outer"]
        by_name = {r["name"]: r for r in records}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["attributes"] == {"model": "snli"}

    def test_sibling_roots_get_distinct_traces(self, tmp_path, tracer):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = read_records(tmp_path)
        assert first["trace_id"] != second["trace_id"]
        assert first["span_id"] != second["span_id"]

    def test_set_merges_attributes_and_drops_none(self, tmp_path, tracer):
        with tracer.span("op", keep=1, skip=None) as span:
            span.set(layers=4, absent=None)
        (record,) = read_records(tmp_path)
        assert record["attributes"] == {"keep": 1, "layers": 4}

    def test_exception_records_error_attribute_and_propagates(
        self, tmp_path, tracer
    ):
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("faulty"):
                raise ValueError("boom")
        (record,) = read_records(tmp_path)
        assert record["attributes"]["error"] == "ValueError: boom"
        assert record["duration_s"] >= 0.0
        assert tracer.current_span() is None

    def test_threads_do_not_cross_link(self, tmp_path, tracer):
        seen = {}

        def worker(label):
            with tracer.span(label) as span:
                seen[label] = (span.trace_id, span.parent_id)

        with tracer.span("main-root"):
            threads = [
                threading.Thread(target=worker, args=(f"t{i}",))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for trace_id, parent_id in seen.values():
            # Worker spans opened on other threads are their own roots,
            # not children of the main thread's open span.
            assert parent_id is None
        assert len({trace for trace, _ in seen.values()}) == 4

    def test_every_emitted_record_is_schema_valid(self, tmp_path, tracer):
        with tracer.span("outer", model="snli"):
            with tracer.span("inner"):
                pass
        for record in read_records(tmp_path):
            assert validate_record(record) == "span"
        counts = validate_file(tmp_path)
        assert counts == {"span": 2}


class TestDisabledTracer:
    def test_disabled_span_is_the_shared_noop(self):
        tracer = Tracer(None)
        span = tracer.span("anything", layers=3)
        assert span is NOOP_SPAN
        assert span.set(more=1) is span
        with span:
            pass
        assert not tracer.enabled
        assert tracer.spans_emitted == 0

    def test_describe_reports_status(self, tmp_path, tracer):
        assert Tracer(None).describe() == {
            "enabled": False, "dir": None, "spans_emitted": 0,
        }
        with tracer.span("op"):
            pass
        description = tracer.describe()
        assert description["enabled"] is True
        assert description["dir"] == str(tmp_path)
        assert description["spans_emitted"] == 1


class TestGlobalTracer:
    def test_env_variable_enables_global_tracer(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
        configure(None)          # force the lazy rebuild to re-read env
        import repro.telemetry.tracing as tracing
        tracing._GLOBAL_TRACER = None
        tracer = get_tracer()
        assert tracer.enabled and tracer.directory == str(tmp_path)

    def test_configure_same_directory_keeps_tracer(self, tmp_path):
        first = configure(tmp_path)
        with first.span("op"):
            pass
        again = configure(tmp_path)
        assert again is first
        assert again.spans_emitted == 1
        other = configure(tmp_path / "elsewhere")
        assert other is not first

    def test_traced_decorator_resolves_tracer_at_call_time(self, tmp_path):
        @traced("custom.name", flavor="test")
        def add(a, b):
            return a + b

        assert add(1, 2) == 3          # disabled: no records, result intact
        configure(tmp_path)
        assert add(3, 4) == 7
        (record,) = read_records(tmp_path)
        assert record["name"] == "custom.name"
        assert record["attributes"] == {"flavor": "test"}


class TestJsonlWriter:
    def test_rotation_by_size_and_pruning(self, tmp_path):
        writer = JsonlWriter(tmp_path, max_bytes=200, max_files=3)
        for index in range(40):
            writer.write({"type": "filler", "index": index, "pad": "x" * 40})
        writer.close()
        segments = sorted(tmp_path.glob("events-*.jsonl"))
        assert 1 < len(segments) <= 3
        # Numbering keeps ascending: the earliest segments were pruned.
        assert segments[-1].name != "events-00001.jsonl"
        for segment in segments:
            assert segment.stat().st_size <= 200 + 100

    def test_restart_resumes_highest_segment(self, tmp_path):
        first = JsonlWriter(tmp_path)
        first.write({"type": "x", "n": 1})
        first.close()
        writer = JsonlWriter(tmp_path)
        assert writer.current_path.name == "events-00001.jsonl"
        writer.write({"type": "x", "n": 2})
        writer.close()
        lines = writer.current_path.read_text().splitlines()
        assert [json.loads(line)["n"] for line in lines] == [1, 2]


class TestSchema:
    def test_validate_record_rejects_bad_documents(self):
        good = None
        tracer = Tracer(None)
        span = Span(tracer, "op", trace_id="t" * 32, parent_id=None,
                    attributes={})
        good = span.to_record()
        assert validate_record(good) == "span"
        for field, value in [
            ("type", "bogus"), ("trace_id", ""), ("span_id", 7),
            ("duration_s", -1.0), ("attributes", []), ("pid", True),
            ("parent_id", 3.5), ("start_s", "now"),
        ]:
            broken = dict(good, **{field: value})
            with pytest.raises(TelemetryRecordError):
                validate_record(broken)
        with pytest.raises(TelemetryRecordError):
            validate_record({"type": "span"})
        with pytest.raises(TelemetryRecordError):
            validate_record([])

    def test_metrics_records_validate(self, tmp_path, tracer):
        from repro.telemetry import get_registry

        tracer.emit_metrics(get_registry())
        (record,) = read_records(tmp_path)
        assert validate_record(record) == "metrics"

    def test_validate_file_reports_line_numbers(self, tmp_path):
        path = tmp_path / "events-00001.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        with pytest.raises(TelemetryRecordError):
            validate_file(tmp_path)

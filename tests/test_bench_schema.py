"""Schema validation for every committed ``BENCH_*.json`` trajectory file.

The benchmarks' output files are the regression watch's baseline
(:mod:`repro.lineage.bench`), so a benchmark script must not be able to
silently emit a malformed trajectory point: every committed file is
validated here against the shared schema registry — required keys
present, watched gates the right type, no NaN/inf anywhere — and the
registry itself is checked for coherence (every watched path and bound
is also a schema requirement the validator enforces).
"""

import json
import math
from pathlib import Path

import pytest

from repro.lineage.bench import (
    BENCH_SCHEMAS,
    WATCHED_METRICS,
    resolve_path,
    validate_bench_payload,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(REPO_ROOT.glob("BENCH_*.json"))


def test_the_repo_commits_bench_files():
    """The watch is pointless without baselines; the repo ships nine."""
    assert len(BENCH_FILES) >= 8, [path.name for path in BENCH_FILES]


@pytest.mark.parametrize(
    "path", BENCH_FILES, ids=[path.name for path in BENCH_FILES]
)
def test_committed_bench_file_is_valid(path):
    payload = json.loads(path.read_text())
    assert validate_bench_payload(payload) == []


@pytest.mark.parametrize(
    "path", BENCH_FILES, ids=[path.name for path in BENCH_FILES]
)
def test_committed_benchmark_name_is_registered(path):
    payload = json.loads(path.read_text())
    assert payload.get("benchmark") in BENCH_SCHEMAS


def test_every_registered_benchmark_is_committed():
    """A registry entry without a committed file is a stale schema."""
    committed = {
        json.loads(path.read_text()).get("benchmark") for path in BENCH_FILES
    }
    assert set(BENCH_SCHEMAS) <= committed


@pytest.mark.parametrize("name", sorted(WATCHED_METRICS))
def test_watched_paths_resolve_in_the_committed_file(name):
    """Every gate the CI watch reads must exist in today's baseline."""
    payload = next(
        json.loads(path.read_text())
        for path in BENCH_FILES
        if json.loads(path.read_text()).get("benchmark") == name
    )
    for metric in WATCHED_METRICS[name]:
        value = resolve_path(payload, metric.path)
        if metric.higher_is_better is None:
            assert isinstance(value, bool), (metric.path, value)
        else:
            assert isinstance(value, (int, float)) and not isinstance(
                value, bool
            ), (metric.path, value)
            assert math.isfinite(value), (metric.path, value)
        if metric.bound is not None:
            bound = resolve_path(payload, metric.bound)
            assert isinstance(bound, (int, float)) and math.isfinite(bound)


class TestValidator:
    """The validator must actually catch the failure modes it claims to."""

    def _telemetry(self):
        return json.loads((REPO_ROOT / "BENCH_telemetry.json").read_text())

    def test_missing_benchmark_key(self):
        assert validate_bench_payload({"x": 1}) == [
            "missing or non-string 'benchmark' key"
        ]

    def test_unknown_benchmark_is_rejected(self):
        errors = validate_bench_payload({"benchmark": "made_up"})
        assert errors and "unknown benchmark" in errors[0]

    def test_missing_required_key_is_named(self):
        payload = self._telemetry()
        del payload["enabled_overhead_fraction"]
        errors = validate_bench_payload(payload)
        assert any("enabled_overhead_fraction" in error for error in errors)

    def test_nan_anywhere_is_rejected(self):
        payload = self._telemetry()
        payload["nested"] = {"deep": [1.0, float("nan")]}
        errors = validate_bench_payload(payload)
        assert any("non-finite" in error for error in errors)

    def test_boolean_gate_with_wrong_type_is_rejected(self):
        payload = self._telemetry()
        payload["bit_identical"] = "yes"
        errors = validate_bench_payload(payload)
        assert any("boolean" in error for error in errors)

    def test_numeric_gate_with_wrong_type_is_rejected(self):
        payload = self._telemetry()
        payload["noop_span_nanoseconds"] = "fast"
        errors = validate_bench_payload(payload)
        assert any("numeric" in error for error in errors)

"""The BENCH regression watch: schema + diff for ``BENCH_*.json`` files.

Every benchmark under ``benchmarks/`` commits a trajectory point as
``BENCH_<name>.json``.  This module is the single source of truth for
what those files must contain (:data:`BENCH_SCHEMAS`, enforced by
``tests/test_bench_schema.py``) and which of their fields the CI
``regression-watch`` job gates on (:data:`WATCHED_METRICS`).

The watch distinguishes two classes of field:

* **gated** metrics (``WatchedMetric.gate``) participate in
  ``repro diff --fail-on regressed``.  They are either booleans that
  must stay true (``bit_identical``, ``payloads_identical``),
  deterministic counts compared exactly (``frontier_size``,
  ``warm_layers_resimulated``), or bound-backed measurements compared
  against the *committed* gate value (``enabled_overhead_fraction`` vs
  ``max_enabled_overhead_fraction``) — a fresh run regresses only when
  it violates the bound, so machine-to-machine timing noise can't fail
  CI, but loosening a gate or blowing through one can.
* **informational** metrics are classified improved/held/regressed
  against the committed value with a generous relative tolerance but
  never fail the watch — they exist so the diff table shows drift.

``BENCH_jobs.json`` is the cautionary example for why bounds compare
against the committed gate, not the committed value: its
``overhead_fraction`` legitimately exceeds ``max_overhead_fraction``
because the benchmark's real gate includes ``absolute_slack_seconds``;
gating that field naively would fail CI on the committed state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.lineage.diff import CHANGED, HELD, IMPROVED, REGRESSED, values_hold

#: Default relative tolerance for informational (timing-ish) metrics.
DEFAULT_BENCH_TOLERANCE = 0.25


@dataclass(frozen=True)
class WatchedMetric:
    """One BENCH field the regression watch tracks.

    ``higher_is_better=None`` marks a boolean that must stay true.
    ``bound`` names a dotted path (in the *committed* document) holding
    the gate value the fresh measurement must respect.  ``tolerance``
    overrides the diff-wide tolerance (``0.0`` = compare exactly).
    """

    path: str
    higher_is_better: Optional[bool] = None
    bound: Optional[str] = None
    gate: bool = False
    tolerance: Optional[float] = None


#: Gated + informational fields per benchmark (keyed by the documents'
#: ``"benchmark"`` value).  Bound-backed entries gate on the committed
#: bound; exact entries (tolerance 0) gate deterministic outputs.
WATCHED_METRICS: Dict[str, Tuple[WatchedMetric, ...]] = {
    "api_session": (
        WatchedMetric("layer_reduction", True, tolerance=0.0, gate=True),
    ),
    "dse_frontier": (
        WatchedMetric("points", True, tolerance=0.0, gate=True),
        WatchedMetric("frontier_size", True, tolerance=0.0, gate=True),
        WatchedMetric("wall_clock.cold_seconds", False),
    ),
    "engine_backends": (
        WatchedMetric("bit_identical", gate=True),
        WatchedMetric(
            "backends.vectorized.speedup_vs_reference",
            True,
            bound="perf_gate.min_vectorized_speedup",
            gate=True,
        ),
        WatchedMetric(
            "cache.warm_layers_resimulated", False, tolerance=0.0, gate=True
        ),
        WatchedMetric("backends.vectorized.seconds", False),
    ),
    "jobs_service_overhead": (
        WatchedMetric("payloads_identical", gate=True),
        WatchedMetric("overhead_fraction", False, tolerance=0.5),
    ),
    "memory_roofline": (
        WatchedMetric(
            "overhead_fraction",
            False,
            bound="max_overhead_fraction",
            gate=True,
        ),
        WatchedMetric(
            "hierarchies.table2.stall_fraction", False, tolerance=0.0
        ),
    ),
    "profile_engine": (
        WatchedMetric("whole_trace_seconds", False),
        WatchedMetric("training.total_seconds", False),
    ),
    "scale": (
        WatchedMetric(
            "single_device.tensordash_cycles", False, tolerance=0.0
        ),
        WatchedMetric("single_device.overhead", False, tolerance=0.5),
    ),
    "telemetry_overhead": (
        WatchedMetric("bit_identical", gate=True),
        WatchedMetric(
            "enabled_overhead_fraction",
            False,
            bound="max_enabled_overhead_fraction",
            gate=True,
        ),
        WatchedMetric(
            "noop_span_nanoseconds",
            False,
            bound="max_noop_span_nanoseconds",
            gate=True,
        ),
    ),
}

#: Structural keys every committed BENCH file must resolve, per
#: benchmark.  ``tests/test_bench_schema.py`` additionally checks every
#: watched path + bound above, and that no numeric leaf is NaN/inf.
BENCH_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    "api_session": (
        "passes",
        "cold.layers_simulated",
        "warm.layers_simulated",
        "layer_reduction",
        "gate",
    ),
    "dse_frontier": (
        "points",
        "frontier_size",
        "frontier",
    ),
    "engine_backends": (
        "backends.reference.seconds",
        "backends.vectorized.speedup_vs_reference",
        "perf_gate.min_vectorized_speedup",
        "cache.warm_cache_hits",
        "bit_identical",
    ),
    "jobs_service_overhead": (
        "blocking_seconds",
        "jobs_seconds",
        "overhead_fraction",
        "max_overhead_fraction",
        "absolute_slack_seconds",
        "payloads_identical",
    ),
    "memory_roofline": (
        "overhead_fraction",
        "max_overhead_fraction",
        "hierarchies.unbounded.seconds",
        "hierarchies.table2.stall_fraction",
    ),
    "profile_engine": (
        "whole_trace_seconds",
        "hotspots_by_self_time",
        "per_layer_seconds",
        "training.total_seconds",
    ),
    "scale": (
        "single_device.overhead",
        "single_device.tensordash_cycles",
        "curve.data",
        "gates.data_efficiency_at_8",
    ),
    "telemetry_overhead": (
        "disabled_seconds",
        "enabled_seconds",
        "enabled_overhead_fraction",
        "max_enabled_overhead_fraction",
        "noop_span_nanoseconds",
        "max_noop_span_nanoseconds",
        "bit_identical",
    ),
}


def resolve_path(payload: Dict, path: str):
    """Walk a dotted path through nested dicts; ``KeyError`` if absent."""
    value = payload
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError(path)
        value = value[part]
    return value


def _non_finite_leaves(value, prefix: str = "") -> List[str]:
    if isinstance(value, bool) or value is None:
        return []
    if isinstance(value, (int, float)):
        return [] if math.isfinite(value) else [prefix or "<root>"]
    if isinstance(value, dict):
        bad: List[str] = []
        for key, item in value.items():
            bad.extend(
                _non_finite_leaves(item, f"{prefix}.{key}" if prefix else key)
            )
        return bad
    if isinstance(value, list):
        bad = []
        for index, item in enumerate(value):
            bad.extend(_non_finite_leaves(item, f"{prefix}[{index}]"))
        return bad
    return []


def validate_bench_payload(payload: Dict) -> List[str]:
    """Schema errors for one BENCH document (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return [f"BENCH payload must be an object, got {type(payload).__name__}"]
    name = payload.get("benchmark")
    if not isinstance(name, str) or not name:
        return ["missing or non-string 'benchmark' key"]
    if name not in BENCH_SCHEMAS:
        return [
            f"unknown benchmark {name!r}; register it in "
            f"repro.lineage.bench.BENCH_SCHEMAS (known: "
            f"{sorted(BENCH_SCHEMAS)})"
        ]
    for path in BENCH_SCHEMAS[name]:
        try:
            resolve_path(payload, path)
        except KeyError:
            errors.append(f"{name}: required key {path!r} is missing")
    for metric in WATCHED_METRICS.get(name, ()):
        for path, kind in ((metric.path, "watched"), (metric.bound, "bound")):
            if path is None:
                continue
            try:
                value = resolve_path(payload, path)
            except KeyError:
                errors.append(f"{name}: {kind} path {path!r} is missing")
                continue
            if metric.higher_is_better is None and kind == "watched":
                if not isinstance(value, bool):
                    errors.append(
                        f"{name}: {path!r} must be a boolean, got {value!r}"
                    )
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(
                    f"{name}: {path!r} must be numeric, got {value!r}"
                )
    for leaf in _non_finite_leaves(payload):
        errors.append(f"{name}: non-finite number at {leaf}")
    return errors


# ----------------------------------------------------------------------
def load_bench_side(
    source: Union[str, Path, Dict], label: Optional[str] = None
) -> Tuple[str, Dict[str, Dict]]:
    """Normalise one diff side into ``(label, {benchmark name -> doc})``.

    ``source`` may be a directory (all ``BENCH_*.json`` inside), a single
    BENCH file path, one BENCH document, or a pre-built name→document
    mapping.
    """
    if isinstance(source, dict):
        if "benchmark" in source:
            return label or "<payload>", {str(source["benchmark"]): source}
        docs = {}
        for key, doc in source.items():
            if not isinstance(doc, dict):
                raise ValueError(
                    f"bench mapping entry {key!r} is not an object"
                )
            docs[str(doc.get("benchmark", key))] = doc
        return label or "<payload>", docs
    path = Path(source)
    if path.is_dir():
        docs = {}
        for file in sorted(path.glob("BENCH_*.json")):
            doc = json.loads(file.read_text())
            docs[str(doc.get("benchmark", file.stem))] = doc
        if not docs:
            raise ValueError(f"{path}: no BENCH_*.json files found")
        return label or str(path), docs
    doc = json.loads(path.read_text())
    return label or str(path), {str(doc.get("benchmark", path.stem)): doc}


@dataclass(frozen=True)
class BenchDiff:
    """Committed-vs-fresh classification of every watched BENCH metric."""

    a_source: str
    b_source: str
    tolerance: float
    #: One row per watched metric present on both sides.
    rows: List[Dict]
    warnings: Tuple[str, ...] = ()

    @property
    def identical(self) -> bool:
        return all(row["classification"] == HELD for row in self.rows)

    @property
    def regressions(self) -> int:
        """Gated rows that regressed — the ``--fail-on regressed`` count."""
        return sum(
            1
            for row in self.rows
            if row["gate"] and row["classification"] == REGRESSED
        )

    def count(self, classification: str) -> int:
        return sum(
            1 for row in self.rows if row["classification"] == classification
        )

    def summary(self) -> Dict:
        return {
            "watched": len(self.rows),
            "improved": self.count(IMPROVED),
            "held": self.count(HELD),
            "regressed": self.count(REGRESSED),
            "changed": self.count(CHANGED),
            "gated_regressions": self.regressions,
            "identical": self.identical,
        }

    def to_dict(self) -> Dict:
        return {
            "a": self.a_source,
            "b": self.b_source,
            "tolerance": self.tolerance,
            "summary": self.summary(),
            "rows": [dict(row) for row in self.rows],
            "warnings": list(self.warnings),
        }


def _classify_bench(
    metric: WatchedMetric,
    committed,
    fresh,
    bound: Optional[float],
    tolerance: float,
) -> str:
    if metric.higher_is_better is None:
        if bool(committed) == bool(fresh):
            return HELD
        return IMPROVED if fresh is True else REGRESSED
    committed, fresh = float(committed), float(fresh)
    effective = metric.tolerance if metric.tolerance is not None else tolerance
    if bound is not None:
        violated = (
            fresh < bound if metric.higher_is_better else fresh > bound
        )
        if violated:
            return REGRESSED
        better = (fresh > committed) == metric.higher_is_better
        if better and not values_hold(committed, fresh, effective):
            return IMPROVED
        return HELD
    if values_hold(committed, fresh, effective):
        return HELD
    better = (fresh > committed) == metric.higher_is_better
    return IMPROVED if better else REGRESSED


def diff_bench(
    a: Dict[str, Dict],
    b: Dict[str, Dict],
    tolerance: float = DEFAULT_BENCH_TOLERANCE,
    a_source: str = "a",
    b_source: str = "b",
) -> BenchDiff:
    """Diff committed BENCH documents ``a`` against freshly emitted ``b``.

    Benchmarks present on only one side are skipped with a warning (the
    CI watch re-runs a subset of benchmarks, so one-sided names are
    expected); a *watched* path missing from a present document is a
    regression when gated — a benchmark must not silently stop emitting
    its gate.
    """
    rows: List[Dict] = []
    warnings: List[str] = []
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            side = "fresh" if name not in b else "committed"
            warnings.append(
                f"benchmark {name!r} has no {side} document; skipped"
            )
            continue
        for metric in WATCHED_METRICS.get(name, ()):
            row: Dict = {
                "benchmark": name,
                "metric": metric.path,
                "gate": metric.gate,
                "bound": None,
                "a": None,
                "b": None,
            }
            try:
                committed = resolve_path(a[name], metric.path)
            except KeyError:
                warnings.append(
                    f"{name}: {metric.path!r} missing from committed "
                    f"document; skipped"
                )
                continue
            bound = None
            if metric.bound is not None:
                try:
                    bound = float(resolve_path(a[name], metric.bound))
                except (KeyError, TypeError, ValueError):
                    warnings.append(
                        f"{name}: bound {metric.bound!r} missing or "
                        f"non-numeric in committed document; comparing "
                        f"against the committed value instead"
                    )
            row["bound"] = bound
            row["a"] = committed
            try:
                fresh = resolve_path(b[name], metric.path)
            except KeyError:
                row["classification"] = REGRESSED if metric.gate else CHANGED
                row["b"] = None
                warnings.append(
                    f"{name}: {metric.path!r} missing from fresh document"
                )
                rows.append(row)
                continue
            row["b"] = fresh
            try:
                row["classification"] = _classify_bench(
                    metric, committed, fresh, bound, tolerance
                )
            except (TypeError, ValueError):
                row["classification"] = REGRESSED if metric.gate else CHANGED
                warnings.append(
                    f"{name}: {metric.path!r} is not comparable "
                    f"({committed!r} vs {fresh!r})"
                )
            rows.append(row)
    return BenchDiff(
        a_source=a_source,
        b_source=b_source,
        tolerance=tolerance,
        rows=rows,
        warnings=tuple(warnings),
    )

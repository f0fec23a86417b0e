"""Study reporting: frontier tables, JSON and CSV exports.

One study, three renderings.  :func:`format_study_report` is the
human-readable view the CLI prints (all points with the frontier marked,
the frontier on its own, the per-objective winners, and the engine's
simulation/cache counters).  :func:`study_to_json` is the machine-readable
document benchmarks and downstream tooling consume, and
:func:`study_to_csv` is the spreadsheet-friendly flat table.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional, Sequence

from repro.analysis.reporting import format_engine_stats, format_table
from repro.explore.runner import StudyResult


def _metric_columns(result: StudyResult, names: Optional[Sequence[str]]) -> List[str]:
    return [objective.name for objective in result.objectives(names)]


def format_points_table(
    result: StudyResult,
    names: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """All study points as a table, Pareto-optimal ones marked with ``*``."""
    columns = _metric_columns(result, names)
    frontier_ids = {point.point_id for point in result.frontier(names)}
    rows = []
    for point in result.points:
        rows.append(
            [point.workload, point.scenario, point.config_label]
            + [point.metrics[name] for name in columns]
            + ["*" if point.point_id in frontier_ids else ""]
        )
    return format_table(
        title or f"Study '{result.spec.name}': {len(result.points)} design points",
        ["workload", "scenario", "configuration"] + columns + ["pareto"],
        rows,
    )


def format_frontier_table(
    result: StudyResult, names: Optional[Sequence[str]] = None
) -> str:
    """Just the Pareto frontier, one row per non-dominated point."""
    columns = _metric_columns(result, names)
    frontier = result.frontier(names)
    rows = [
        [point.workload, point.scenario, point.config_label]
        + [point.metrics[name] for name in columns]
        for point in frontier
    ]
    return format_table(
        f"Pareto frontier ({len(frontier)} of {len(result.points)} points)",
        ["workload", "scenario", "configuration"] + columns,
        rows,
    )


def format_roofline_section(result: StudyResult) -> Optional[str]:
    """Roofline summary: each point's intensity against its ridge point.

    A point is reported memory-bound when the simulator recorded any
    memory-bound operation for it; points evaluated under an unbounded
    hierarchy have no ridge point and are always compute-bound.  Returns
    ``None`` when no point carries roofline metrics (e.g. a study resumed
    from a pre-memory-model manifest).
    """
    rows = []
    for point in result.points:
        metrics = point.metrics
        if "operational_intensity" not in metrics:
            continue
        ridge = metrics.get("ridge_point")
        verdict = "memory" if metrics.get("memory_bound_fraction", 0.0) > 0 else "compute"
        rows.append(
            [
                point.workload,
                point.scenario,
                point.config_label,
                metrics["operational_intensity"],
                ridge if ridge is not None else "-",
                metrics.get("stall_fraction", 0.0),
                verdict,
            ]
        )
    if not rows:
        return None
    return format_table(
        "Roofline (MACs per DRAM byte; bound = memory when any operation stalled)",
        ["workload", "scenario", "configuration", "intensity", "ridge", "stall", "bound"],
        rows,
    )


def format_scaling_section(result: StudyResult) -> Optional[str]:
    """Scaling-efficiency curve: one row per multi-device point.

    Points carrying scaling knobs (``num_devices`` / ``partition`` /
    ``link_gbps``) record their multi-device metrics; this section lists
    them ordered by workload and device count, so a study sweeping
    ``num_devices`` reads as the classic efficiency-vs-devices curve.
    Returns ``None`` for single-chip-only studies.
    """
    rows = []
    for point in result.points:
        metrics = point.metrics
        if "num_devices" not in metrics:
            continue
        rows.append(
            [
                point.workload,
                point.scenario,
                point.config_label,
                int(metrics["num_devices"]),
                metrics.get("scaled_speedup", 1.0),
                metrics.get("scaling_efficiency", 1.0),
                metrics.get("comm_fraction", 0.0),
            ]
        )
    if not rows:
        return None
    rows.sort(key=lambda row: (row[0], row[1], row[3]))
    return format_table(
        "Scaling (speedup vs one device; efficiency vs ideal linear; "
        "comm = stalled fraction)",
        ["workload", "scenario", "configuration", "devices",
         "speedup", "efficiency", "comm"],
        rows,
    )


def format_study_report(
    result: StudyResult, names: Optional[Sequence[str]] = None
) -> str:
    """The full plain-text report the ``repro explore`` CLI prints."""
    objectives = result.objectives(names)
    lines = [
        format_points_table(result, names),
        "",
        format_frontier_table(result, names),
        "",
        "Best per objective:",
    ]
    best = result.best_per_objective(names)
    for objective in objectives:
        point = best.get(objective.name)
        if point is None:
            continue
        direction = "max" if objective.maximize else "min"
        lines.append(
            f"  {objective.name} ({direction}): {point.label} "
            f"-> {point.metrics[objective.name]:.3f}"
        )
    roofline = format_roofline_section(result)
    if roofline is not None:
        lines.extend(["", roofline])
    scaling = format_scaling_section(result)
    if scaling is not None:
        lines.extend(["", scaling])
    if result.resumed_points:
        lines.append(
            f"Resumed: {result.resumed_points} point(s) restored from the manifest."
        )
    lines.append(format_engine_stats(result.stats))
    return "\n".join(lines)


def study_to_dict(
    result: StudyResult, names: Optional[Sequence[str]] = None
) -> Dict:
    """JSON-ready document with spec, points, frontier and engine stats."""
    objectives = result.objectives(names)
    return {
        "spec": result.spec.to_dict(),
        "objectives": [objective.describe() for objective in objectives],
        "points": [point.to_dict() for point in result.points],
        "frontier": [point.point_id for point in result.frontier(names)],
        "best_per_objective": {
            name: point.point_id
            for name, point in result.best_per_objective(names).items()
        },
        "resumed_points": result.resumed_points,
        "engine": result.stats.as_dict(),
    }


def study_to_json(
    result: StudyResult, names: Optional[Sequence[str]] = None, indent: int = 2
) -> str:
    """The :func:`study_to_dict` document as a JSON string."""
    return json.dumps(study_to_dict(result, names), indent=indent) + "\n"


def study_result_from_dict(payload: Dict) -> StudyResult:
    """Rebuild a :class:`StudyResult` from a :func:`study_to_dict` document.

    The inverse rendering path: API clients (and the CLI, which routes
    every study through :class:`repro.api.Session`) receive the
    serialised document and can re-render any of the three views from
    it.  Frontier membership and per-objective winners are recomputed
    from the points, so they always agree with the tables.
    """
    from repro.engine.engine import EngineStats
    from repro.explore.runner import PointResult
    from repro.explore.spec import StudySpec

    if not isinstance(payload, dict) or "spec" not in payload or "points" not in payload:
        raise ValueError("study document must be a dict with 'spec' and 'points'")
    return StudyResult(
        spec=StudySpec.from_dict(payload["spec"]),
        points=[PointResult.from_dict(point) for point in payload["points"]],
        stats=EngineStats.from_dict(payload.get("engine") or {}),
        resumed_points=int(payload.get("resumed_points", 0)),
    )


def study_to_csv(result: StudyResult, names: Optional[Sequence[str]] = None) -> str:
    """Flat CSV: one row per point, one column per recorded metric.

    The ``pareto`` column marks the frontier under ``names`` (the spec's
    objectives when omitted), matching the table and JSON renderings.
    """
    metric_names: List[str] = []
    for point in result.points:
        for name in point.metrics:
            if name not in metric_names:
                metric_names.append(name)
    frontier_ids = {point.point_id for point in result.frontier(names)}
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["point_id", "workload", "scenario", "configuration", "pareto"] + metric_names
    )
    for point in result.points:
        writer.writerow(
            [
                point.point_id,
                point.workload,
                point.scenario,
                point.config_label,
                int(point.point_id in frontier_ids),
            ]
            + [point.metrics.get(name, "") for name in metric_names]
        )
    return buffer.getvalue()

"""Result aggregation and report formatting for the benchmark harness."""

from repro._lazy import lazy_exports

__all__ = [
    "geometric_mean",
    "format_table",
    "format_series",
    "format_engine_stats",
    "ReportTable",
    "Objective",
    "dominates",
    "pareto_frontier",
    "best_per_objective",
    "RooflinePoint",
    "RooflineReport",
    "roofline_report",
    "format_roofline_report",
    "operational_intensity",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.frontier": (
        "Objective", "best_per_objective", "dominates", "pareto_frontier",
    ),
    "repro.analysis.metrics": ("geometric_mean",),
    "repro.analysis.roofline": (
        "RooflinePoint", "RooflineReport", "format_roofline_report",
        "operational_intensity", "roofline_report",
    ),
    "repro.analysis.reporting": (
        "ReportTable", "format_engine_stats", "format_series", "format_table",
    ),
})

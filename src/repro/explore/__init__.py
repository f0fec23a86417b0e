"""Declarative design-space exploration over the TensorDash model.

The paper's evaluation is a design-space story: Figs. 17-19 and the
bfloat16 study sweep tile geometry, staging depth and datatype against
speedup, energy efficiency and area overhead.  This package turns those
one-knob-at-a-time sweeps into declarative *studies*:

:class:`~repro.explore.spec.StudySpec`
    A dict/JSON-loadable description of a design space — accelerator
    knobs x model-zoo workloads x sparsity scenarios — expanded either
    exhaustively (cartesian) or as a seeded random sample, with stable
    per-point content hashes.

:class:`~repro.explore.runner.StudyRunner`
    Executes a spec through the
    :class:`~repro.engine.SimulationEngine` (same cache flags as every
    other entry point), records speedup, energy
    efficiency and area overhead per point, and checkpoints a resumable
    manifest so an interrupted study continues where it left off with
    zero re-simulation.

:mod:`~repro.analysis.frontier` + :mod:`~repro.explore.report`
    Pareto-dominance filtering, per-objective winners, and table / JSON /
    CSV reports.

Everything is surfaced on the command line as ``repro explore
<spec.json>`` (with ``--resume``, ``--sample N --seed S`` and
``--objectives``); ``repro sweep`` is a thin one-knob alias over the
same machinery.
"""

from repro._lazy import lazy_exports

__all__ = [
    "StudySpec",
    "DesignPoint",
    "KNOBS",
    "SCALE_KNOBS",
    "METRIC_ORIENTATIONS",
    "DEFAULT_OBJECTIVES",
    "parse_objectives",
    "parse_scenario",
    "apply_scenario",
    "StudyRunner",
    "StudyResult",
    "StudyResumeError",
    "PointResult",
    "run_study",
    "format_study_report",
    "format_points_table",
    "format_frontier_table",
    "format_scaling_section",
    "study_to_dict",
    "study_to_json",
    "study_to_csv",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.explore.runner": (
        "PointResult", "StudyResult", "StudyResumeError", "StudyRunner",
        "run_study",
    ),
    "repro.explore.scenarios": ("apply_scenario", "parse_scenario"),
    "repro.explore.spec": (
        "DEFAULT_OBJECTIVES", "KNOBS", "METRIC_ORIENTATIONS", "SCALE_KNOBS",
        "DesignPoint", "StudySpec", "parse_objectives",
    ),
    "repro.explore.report": (
        "format_frontier_table", "format_points_table",
        "format_scaling_section", "format_study_report", "study_to_csv",
        "study_to_dict", "study_to_json",
    ),
})

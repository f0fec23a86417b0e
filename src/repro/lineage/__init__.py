"""Study lineage: manifest snapshots, field-level diffs, regression watch.

Studies (:mod:`repro.explore`) checkpoint append-only manifests and the
benchmark harness commits ``BENCH_*.json`` trajectory files, but until
this package nothing *compared* them — a change that shrank a Pareto
frontier or slowed a hot path was only caught by a human staring at
numbers.  ``repro.lineage`` closes that loop:

:class:`~repro.lineage.snapshot.ManifestSnapshot`
    Normalises any study artifact — a study directory, a compacted
    ``manifest.json`` (old rewrite-style), an append-only
    ``manifest.segment.jsonl`` (PR 8 format, torn trailing lines
    tolerated), or a ``repro explore --format json`` study document —
    into a point-keyed snapshot with a spec fingerprint and a
    noise-field ignore list.

:func:`~repro.lineage.diff.diff_snapshots`
    Field-level diff of two snapshots: per-point metric deltas
    (absolute + relative, configurable tolerance), frontier membership
    changes (entered / left / held) and "which knob moved this"
    attribution along the single knob axis that explains the change.

:func:`~repro.lineage.bench.diff_bench`
    The BENCH regression watch: diffs committed ``BENCH_*.json`` files
    against freshly emitted ones and classifies each watched metric as
    improved / held / regressed against its committed gate.

Everything is surfaced as ``repro diff`` (CLI), ``POST /v1/diff`` +
:meth:`repro.api.Session.diff` (service/API) and the CI
``regression-watch`` job.  See ``docs/lineage.md``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BENCH_SCHEMAS",
    "LineageDiff",
    "ManifestSnapshot",
    "MetricDelta",
    "SnapshotError",
    "SnapshotPoint",
    "WatchedMetric",
    "diff_bench",
    "diff_snapshots",
    "load_bench_side",
    "validate_bench_payload",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.lineage.snapshot": (
        "ManifestSnapshot", "SnapshotError", "SnapshotPoint",
    ),
    "repro.lineage.diff": ("LineageDiff", "MetricDelta", "diff_snapshots"),
    "repro.lineage.bench": (
        "BENCH_SCHEMAS", "WatchedMetric", "diff_bench", "load_bench_side",
        "validate_bench_payload",
    ),
})

"""Point-keyed snapshots of study manifests, whatever their on-disk shape.

A study's results have accumulated three serialised forms over the
repo's history:

* the compacted ``manifest.json`` written by :class:`~repro.explore.runner.StudyRunner`
  (``{"version": 1, "spec": ..., "spec_fingerprint": ..., "completed": {...}}``
  — the *old rewrite-style* manifest, still the steady-state format);
* the append-only ``manifest.segment.jsonl`` checkpoint segment
  (header line + one ``{"kind": "point", "record": ...}`` line per
  completed point; a kill can truncate the final line mid-write);
* the study *document* emitted by ``repro explore --format json``
  (:func:`repro.explore.report.study_to_dict`:
  ``{"spec": ..., "points": [...], "frontier": [...], ...}``).

:class:`ManifestSnapshot` normalises any of them — or a study directory
holding the first two — into one immutable view keyed by
``point_id``, carrying the spec fingerprint (recorded, or recomputed
from an embedded spec) and dropping noise fields (non-finite metric
values and any explicitly ignored metric names) so diffs compare only
signal.  Loading is deliberately tolerant: torn trailing segment lines
are skipped exactly like :meth:`StudyRunner._load_segment` does, and a
manifest.json ∪ segment union resolves point-id collisions in favour of
the segment (newer wins).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.explore.runner import MANIFEST_VERSION


class SnapshotError(ValueError):
    """Raised when a payload or path cannot be read as a study snapshot."""


def _finite(value) -> Optional[float]:
    """``value`` as a finite float, or ``None`` if it isn't one."""
    if isinstance(value, bool):
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


@dataclass(frozen=True)
class SnapshotPoint:
    """One normalised design point: identity, axes, and finite metrics."""

    point_id: str
    workload: str
    scenario: str
    #: Knob assignments in name order, hashable for axis grouping.
    knobs: Tuple[Tuple[str, object], ...]
    label: str
    metrics: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_record(
        cls, record: Dict, ignore: Sequence[str] = ()
    ) -> "SnapshotPoint":
        """Build from a manifest record / study-document point dict.

        Tolerates legacy records missing optional presentation fields
        (``label``, ``config_label``); only identity fields are required.
        """
        try:
            point_id = str(record["point_id"])
        except (TypeError, KeyError):
            raise SnapshotError(
                f"point record has no point_id: {record!r}"
            ) from None
        knob_pairs = record.get("knobs") or ()
        try:
            knobs = tuple(
                sorted((str(name), value) for name, value in knob_pairs)
            )
        except (TypeError, ValueError):
            raise SnapshotError(
                f"point {point_id}: knobs must be (name, value) pairs, "
                f"got {knob_pairs!r}"
            ) from None
        dropped = set(ignore)
        metrics: Dict[str, float] = {}
        for name, value in (record.get("metrics") or {}).items():
            if name in dropped:
                continue
            number = _finite(value)
            if number is not None:
                metrics[name] = number
        return cls(
            point_id=point_id,
            workload=str(record.get("workload", "")),
            scenario=str(record.get("scenario", "")),
            knobs=knobs,
            label=str(record.get("label", point_id)),
            metrics=metrics,
        )

    def axes(self) -> Dict[str, object]:
        """Every grouping axis: workload, scenario, and each knob."""
        axes: Dict[str, object] = {
            "workload": self.workload,
            "scenario": self.scenario,
        }
        for name, value in self.knobs:
            axes[name] = value
        return axes


@dataclass(frozen=True)
class ManifestSnapshot:
    """An immutable, point-keyed view of one study's recorded results."""

    #: Where this snapshot came from (path or caller-supplied label).
    source: str
    #: ``point_id -> SnapshotPoint`` in first-seen order.
    points: Dict[str, SnapshotPoint]
    #: The study spec's result-shaping fingerprint, when recoverable.
    spec_fingerprint: Optional[str] = None
    #: The spec's objective names (``"speedup"`` / ``"dram_bytes:min"``).
    objectives: Tuple[str, ...] = ()
    #: Non-fatal oddities found while loading (torn lines, mismatches).
    warnings: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    @classmethod
    def from_payload(
        cls,
        payload: Dict,
        source: str = "<payload>",
        ignore: Sequence[str] = (),
    ) -> "ManifestSnapshot":
        """Normalise an in-memory manifest or study document.

        Accepts the compacted manifest shape (``completed`` mapping) and
        the study-document shape (``points`` list).  Anything else is a
        :class:`SnapshotError`.
        """
        if not isinstance(payload, dict):
            raise SnapshotError(
                f"{source}: expected a JSON object, got {type(payload).__name__}"
            )
        warnings: List[str] = []
        version = payload.get("version")
        if version is not None and version != MANIFEST_VERSION:
            raise SnapshotError(
                f"{source}: manifest version {version!r} is not supported "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        if "completed" in payload:
            records = list(payload.get("completed", {}).values())
        elif "points" in payload:
            records = list(payload.get("points") or [])
        else:
            raise SnapshotError(
                f"{source}: payload has neither 'completed' (manifest) nor "
                f"'points' (study document); keys: {sorted(payload)[:8]}"
            )
        points: Dict[str, SnapshotPoint] = {}
        for record in records:
            point = SnapshotPoint.from_record(record, ignore=ignore)
            points[point.point_id] = point
        fingerprint = payload.get("spec_fingerprint")
        spec = payload.get("spec")
        objectives: Tuple[str, ...] = ()
        if isinstance(spec, dict):
            objectives = tuple(spec.get("objectives") or ())
            if fingerprint is None and "workloads" in spec:
                fingerprint = _fingerprint_from_spec(spec, source, warnings)
        return cls(
            source=source,
            points=points,
            spec_fingerprint=fingerprint,
            objectives=objectives,
            warnings=tuple(warnings),
        )

    @classmethod
    def from_segment(
        cls,
        path: Union[str, Path],
        ignore: Sequence[str] = (),
    ) -> "ManifestSnapshot":
        """Load an append-only segment, tolerating a torn trailing line."""
        path = Path(path)
        points: Dict[str, SnapshotPoint] = {}
        warnings: List[str] = []
        fingerprint: Optional[str] = None
        header_seen = False
        with path.open() as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    # A kill can truncate the final append mid-line;
                    # every complete record before it is still good.
                    warnings.append(
                        f"{path}:{lineno}: torn record, stopping here"
                    )
                    break
                if not header_seen:
                    header_seen = True
                    if entry.get("kind") != "header":
                        raise SnapshotError(
                            f"{path}: first segment line is not a header"
                        )
                    version = entry.get("version")
                    if version != MANIFEST_VERSION:
                        raise SnapshotError(
                            f"{path}: segment version {version!r} is not "
                            f"supported (this build reads {MANIFEST_VERSION})"
                        )
                    fingerprint = entry.get("spec_fingerprint")
                    continue
                if entry.get("kind") == "point":
                    point = SnapshotPoint.from_record(
                        entry.get("record") or {}, ignore=ignore
                    )
                    points[point.point_id] = point
        return cls(
            source=str(path),
            points=points,
            spec_fingerprint=fingerprint,
            warnings=tuple(warnings),
        )

    @classmethod
    def from_file(
        cls,
        path: Union[str, Path],
        ignore: Sequence[str] = (),
    ) -> "ManifestSnapshot":
        """Load a snapshot from any on-disk study artifact.

        ``path`` may be a study directory (``manifest.json`` ∪
        ``manifest.segment.jsonl``, segment records winning), a bare
        manifest / study-document JSON file, or a bare ``.jsonl``
        segment.
        """
        path = Path(path)
        if path.is_dir():
            return cls._from_study_dir(path, ignore=ignore)
        if not path.exists():
            raise SnapshotError(f"{path}: no such file or directory")
        if path.suffix == ".jsonl":
            return cls.from_segment(path, ignore=ignore)
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_payload(payload, source=str(path), ignore=ignore)

    @classmethod
    def _from_study_dir(
        cls, path: Path, ignore: Sequence[str] = ()
    ) -> "ManifestSnapshot":
        manifest = path / "manifest.json"
        segment = path / "manifest.segment.jsonl"
        if not manifest.exists() and not segment.exists():
            raise SnapshotError(
                f"{path}: directory holds neither manifest.json nor "
                f"manifest.segment.jsonl — not a study directory"
            )
        points: Dict[str, SnapshotPoint] = {}
        warnings: List[str] = []
        fingerprint: Optional[str] = None
        objectives: Tuple[str, ...] = ()
        if manifest.exists():
            base = cls.from_file(manifest, ignore=ignore)
            points.update(base.points)
            fingerprint = base.spec_fingerprint
            objectives = base.objectives
            warnings.extend(base.warnings)
        if segment.exists():
            extra = cls.from_segment(segment, ignore=ignore)
            if (
                fingerprint is not None
                and extra.spec_fingerprint is not None
                and extra.spec_fingerprint != fingerprint
            ):
                warnings.append(
                    f"{segment}: segment fingerprint "
                    f"{extra.spec_fingerprint!r} != manifest fingerprint "
                    f"{fingerprint!r}; keeping the segment's records anyway"
                )
            points.update(extra.points)
            if fingerprint is None:
                fingerprint = extra.spec_fingerprint
            warnings.extend(extra.warnings)
        return cls(
            source=str(path),
            points=points,
            spec_fingerprint=fingerprint,
            objectives=objectives,
            warnings=tuple(warnings),
        )

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict:
        """The snapshot as a compact-manifest-shaped JSON document.

        This is how the CLI embeds an on-disk artifact (study dir,
        segment, document) into a :class:`repro.api.schema.DiffRequest`:
        whatever the source format, the wire carries one canonical
        shape.  Loading the payload back yields an equal snapshot.
        """
        payload: Dict = {"version": MANIFEST_VERSION}
        if self.spec_fingerprint is not None:
            payload["spec_fingerprint"] = self.spec_fingerprint
        if self.objectives:
            payload["spec"] = {"objectives": list(self.objectives)}
        payload["completed"] = {
                point_id: {
                    "point_id": point.point_id,
                    "workload": point.workload,
                    "scenario": point.scenario,
                    "knobs": [list(pair) for pair in point.knobs],
                    "label": point.label,
                    "metrics": dict(point.metrics),
                }
                for point_id, point in self.points.items()
        }
        return payload

    def __len__(self) -> int:
        return len(self.points)


def _fingerprint_from_spec(
    spec: Dict, source: str, warnings: List[str]
) -> Optional[str]:
    """Recompute the fingerprint from an embedded spec, best-effort."""
    from repro.explore.spec import StudySpec

    try:
        return StudySpec.from_dict(spec).fingerprint()
    except Exception as exc:  # invalid/foreign spec: snapshot still loads
        warnings.append(
            f"{source}: could not recompute spec fingerprint ({exc})"
        )
        return None

"""Versioned, JSON-serialisable request/result schema for ``repro.api``.

Every workflow the repository supports — simulate, roofline, sweep,
explore, scale, diff — is described by one request dataclass and answered with
one result dataclass wrapped in an :class:`ApiResult` envelope.  All
types share the same contract:

* ``to_dict()`` produces a plain-JSON document (lists, dicts, scalars)
  tagged with ``kind`` and ``schema_version`` where the type is
  polymorphic;
* ``from_dict()`` validates eagerly and raises :class:`SchemaError`
  naming the offending field (``"SimulateRequest.epochs: ..."``) — never
  a bare ``KeyError`` or ``TypeError``;
* ``from_dict(to_dict(x)) == x`` round-trips exactly, including through
  ``json.dumps``/``json.loads``.

The schema is the wire format of the ``repro serve`` batch service and
the argument format of :meth:`repro.api.Session.submit`; the CLI builds
these requests from its flags, so every entry point speaks one language.
``SCHEMA_VERSION`` is bumped on breaking changes; documents from newer
majors are rejected with a clear error instead of being misread.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional

#: Version of the request/result wire format.  Incremented on breaking
#: changes; ``from_dict`` rejects documents from newer versions.
SCHEMA_VERSION = 1

#: Datatypes the PE model supports (mirrors the CLI choices).
DATATYPES = ("fp32", "bfloat16")


class SchemaError(ValueError):
    """An invalid request/result document.  Always names the bad field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


# ----------------------------------------------------------------------
# validation helpers

def _plain(value: Any) -> Any:
    """Copy ``value`` into plain-JSON shape (tuples -> lists, dict copies)."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _check_int(owner: str, name: str, value: Any, minimum: int = 1) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{owner}.{name}", f"expected an integer, got {value!r}")
    if value < minimum:
        raise SchemaError(f"{owner}.{name}", f"must be >= {minimum}, got {value}")


def _check_optional_number(
    owner: str, name: str, value: Any, minimum: float = 0.0
) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{owner}.{name}", f"expected a number, got {value!r}")
    if not math.isfinite(value):
        # NaN slips past ordering comparisons (NaN <= x is False), and
        # neither NaN nor inf is representable in strict JSON.
        raise SchemaError(f"{owner}.{name}", f"expected a finite number, got {value!r}")
    if value <= minimum:
        raise SchemaError(f"{owner}.{name}", f"must be > {minimum:g}, got {value}")


def _check_str(owner: str, name: str, value: Any) -> None:
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{owner}.{name}", f"expected a non-empty string, got {value!r}")


def _check_model(owner: str, value: Any) -> None:
    _check_str(owner, "model", value)
    from repro.models.registry import available_models

    if value not in available_models():
        raise SchemaError(
            f"{owner}.model",
            f"unknown workload {value!r}; known: {available_models()}",
        )


def _check_number_map(owner: str, name: str, value: Any) -> None:
    if not isinstance(value, dict):
        raise SchemaError(f"{owner}.{name}", f"expected an object, got {value!r}")
    for key, item in value.items():
        if not isinstance(key, str):
            raise SchemaError(f"{owner}.{name}", f"non-string key {key!r}")
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise SchemaError(
                f"{owner}.{name}", f"value for {key!r} is not a number: {item!r}"
            )


# ----------------------------------------------------------------------
# shared (de)serialisation machinery

@dataclass
class _ApiModel:
    """Base for every schema type: dict round-trip + eager validation."""

    #: Wire tag for polymorphic dispatch; ``None`` for context-typed models.
    kind: ClassVar[Optional[str]] = None

    def validate(self) -> None:   # pragma: no cover - overridden
        """Raise :class:`SchemaError` on the first invalid field."""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON document; ``from_dict`` round-trips it exactly."""
        payload: Dict[str, Any] = {}
        if self.kind is not None:
            payload["kind"] = self.kind
            payload["schema_version"] = SCHEMA_VERSION
        for spec in dataclasses.fields(self):
            payload[spec.name] = _plain(getattr(self, spec.name))
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> "_ApiModel":
        """Build and validate an instance from a plain dict."""
        name = cls.__name__
        if not isinstance(payload, dict):
            raise SchemaError(name, f"expected a JSON object, got {type(payload).__name__}")
        payload = dict(payload)
        kind = payload.pop("kind", None)
        if kind is not None and cls.kind is not None and kind != cls.kind:
            raise SchemaError(f"{name}.kind", f"expected {cls.kind!r}, got {kind!r}")
        version = payload.pop("schema_version", SCHEMA_VERSION)
        if not isinstance(version, int) or isinstance(version, bool) or version < 1:
            raise SchemaError(f"{name}.schema_version", f"invalid version {version!r}")
        if version > SCHEMA_VERSION:
            raise SchemaError(
                f"{name}.schema_version",
                f"document version {version} is newer than this library "
                f"supports (schema {SCHEMA_VERSION}); upgrade repro",
            )
        specs = {spec.name: spec for spec in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - set(specs))
        if unknown:
            raise SchemaError(
                f"{name}.{unknown[0]}",
                f"unknown field (known fields: {sorted(specs)})",
            )
        for field_name, spec in specs.items():
            required = (
                spec.default is dataclasses.MISSING
                and spec.default_factory is dataclasses.MISSING
            )
            if required and field_name not in payload:
                raise SchemaError(f"{name}.{field_name}", "required field is missing")
        # Construction validates via __post_init__; no second pass needed.
        return cls(**payload)

    def __post_init__(self) -> None:
        self.validate()


# ----------------------------------------------------------------------
# requests

@dataclass
class SimulateRequest(_ApiModel):
    """Train one workload briefly, trace it, simulate baseline vs TensorDash."""

    kind: ClassVar[str] = "simulate"

    model: str
    epochs: int = 2
    batches_per_epoch: int = 2
    batch_size: int = 8
    max_groups: int = 64
    datatype: str = "fp32"
    #: ``None`` means "use the session's default seed".
    seed: Optional[int] = None

    def validate(self) -> None:
        owner = type(self).__name__
        _check_model(owner, self.model)
        for name in ("epochs", "batches_per_epoch", "batch_size", "max_groups"):
            _check_int(owner, name, getattr(self, name))
        if self.datatype not in DATATYPES:
            raise SchemaError(
                f"{owner}.datatype",
                f"expected one of {list(DATATYPES)}, got {self.datatype!r}",
            )
        if self.seed is not None:
            _check_int(owner, "seed", self.seed, minimum=-(2 ** 31))


@dataclass
class RooflineRequest(SimulateRequest):
    """Simulate under a finite memory hierarchy and report the roofline.

    ``dram_bandwidth_gbps`` defaults (at execution time) to the Table 2
    machine's peak; ``sram_bandwidth_gbps`` and ``sram_kb`` default to
    unlimited, matching the CLI flags.
    """

    kind: ClassVar[str] = "roofline"

    dram_bandwidth_gbps: Optional[float] = None
    sram_bandwidth_gbps: Optional[float] = None
    sram_kb: Optional[int] = None

    def validate(self) -> None:
        super().validate()
        owner = type(self).__name__
        _check_optional_number(owner, "dram_bandwidth_gbps", self.dram_bandwidth_gbps)
        _check_optional_number(owner, "sram_bandwidth_gbps", self.sram_bandwidth_gbps)
        if self.sram_kb is not None:
            _check_int(owner, "sram_kb", self.sram_kb)


@dataclass
class ScaleRequest(SimulateRequest):
    """Partition one workload across N simulated devices and report scaling.

    ``link_gbps`` / ``hop_latency_cycles`` parameterise the
    :class:`repro.scale.Interconnect`; ``link_gbps: null`` means an
    infinite link (with ``hop_latency_cycles: 0`` that is the ideal
    interconnect, under which ``num_devices: 1`` reproduces plain
    simulation bit-exactly).  ``trace_max_batch`` raises the traced
    samples kept per convolutional layer — set it to at least
    ``num_devices`` for balanced data-parallel shards (``null`` keeps
    the trainer's default of 4, matching ``simulate``).
    """

    kind: ClassVar[str] = "scale"

    num_devices: int = 2
    partition: str = "data"
    link_gbps: Optional[float] = 25.0
    hop_latency_cycles: int = 500
    trace_max_batch: Optional[int] = None

    def validate(self) -> None:
        super().validate()
        owner = type(self).__name__
        from repro.scale.partition import PARTITIONS

        _check_int(owner, "num_devices", self.num_devices)
        if self.partition not in PARTITIONS:
            raise SchemaError(
                f"{owner}.partition",
                f"expected one of {list(PARTITIONS)}, got {self.partition!r}",
            )
        _check_optional_number(owner, "link_gbps", self.link_gbps)
        _check_int(owner, "hop_latency_cycles", self.hop_latency_cycles, minimum=0)
        if self.trace_max_batch is not None:
            _check_int(owner, "trace_max_batch", self.trace_max_batch)


@dataclass
class SweepRequest(_ApiModel):
    """Re-simulate one workload across a one-knob configuration sweep."""

    kind: ClassVar[str] = "sweep"

    model: str
    knob: str = "rows"
    values: List[Any] = field(default_factory=lambda: [1, 4, 8, 16])
    epochs: int = 2
    batches_per_epoch: int = 2
    batch_size: int = 8
    max_groups: int = 48
    seed: Optional[int] = None
    #: See :class:`ScaleRequest`; raise it when sweeping ``num_devices``.
    trace_max_batch: Optional[int] = None

    def validate(self) -> None:
        owner = type(self).__name__
        _check_model(owner, self.model)
        from repro.core.config import AcceleratorConfig
        from repro.explore.spec import KNOBS, SCALE_KNOBS

        if self.knob not in KNOBS and self.knob not in SCALE_KNOBS:
            raise SchemaError(
                f"{owner}.knob",
                f"unknown knob {self.knob!r}; known: "
                f"{sorted(KNOBS) + sorted(SCALE_KNOBS)}",
            )
        if not isinstance(self.values, (list, tuple)) or not self.values:
            raise SchemaError(
                f"{owner}.values",
                f"expected a non-empty list of knob values, got {self.values!r}",
            )
        self.values = list(self.values)
        for value in self.values:
            try:
                if self.knob in KNOBS:
                    KNOBS[self.knob](AcceleratorConfig(), value)
                else:
                    SCALE_KNOBS[self.knob](value)
            except (ValueError, TypeError, KeyError) as exc:
                raise SchemaError(
                    f"{owner}.values", f"invalid value {value!r} for knob "
                    f"{self.knob!r}: {exc}"
                ) from exc
        for name in ("epochs", "batches_per_epoch", "batch_size", "max_groups"):
            _check_int(owner, name, getattr(self, name))
        if self.seed is not None:
            _check_int(owner, "seed", self.seed, minimum=-(2 ** 31))
        if self.trace_max_batch is not None:
            _check_int(owner, "trace_max_batch", self.trace_max_batch)


@dataclass
class ExploreRequest(_ApiModel):
    """Run a declarative design-space study from an embedded spec."""

    kind: ClassVar[str] = "explore"

    #: A :class:`repro.explore.StudySpec` document (``StudySpec.to_dict``).
    spec: Dict[str, Any]
    study_dir: Optional[str] = None
    resume: bool = False
    #: Random-sample N points instead of the full cartesian product.
    sample: Optional[int] = None
    #: Overrides the spec's seed when given.
    seed: Optional[int] = None
    #: Frontier objectives overriding the spec's, e.g. ``["speedup"]``.
    objectives: Optional[List[str]] = None

    def validate(self) -> None:
        owner = type(self).__name__
        if not isinstance(self.spec, dict):
            raise SchemaError(
                f"{owner}.spec", f"expected a StudySpec object, got {self.spec!r}"
            )
        if self.study_dir is not None:
            _check_str(owner, "study_dir", self.study_dir)
        if not isinstance(self.resume, bool):
            raise SchemaError(f"{owner}.resume", f"expected a boolean, got {self.resume!r}")
        if self.sample is not None:
            _check_int(owner, "sample", self.sample)
        if self.seed is not None:
            _check_int(owner, "seed", self.seed, minimum=-(2 ** 31))
        if self.objectives is not None:
            if not isinstance(self.objectives, (list, tuple)) or not self.objectives:
                raise SchemaError(
                    f"{owner}.objectives",
                    f"expected a non-empty list of metric names, got {self.objectives!r}",
                )
            self.objectives = [str(name) for name in self.objectives]
            from repro.explore.spec import parse_objectives

            try:
                parse_objectives(self.objectives)
            except ValueError as exc:
                raise SchemaError(f"{owner}.objectives", str(exc)) from exc
        # Validate the spec itself (and that any overrides compose with
        # it) before any training starts.
        self.resolved_spec()

    def resolved_spec(self):
        """The validated :class:`StudySpec` with sample/seed overrides applied."""
        from repro.explore.spec import StudySpec

        owner = type(self).__name__
        try:
            spec = StudySpec.from_dict(self.spec)
            if self.sample is not None:
                spec.mode = "random"
                spec.sample = self.sample
            if self.seed is not None:
                spec.seed = self.seed
            spec.validate()
        except ValueError as exc:
            raise SchemaError(f"{owner}.spec", str(exc)) from exc
        return spec


#: Diff comparison modes (see :mod:`repro.lineage`).
DIFF_MODES = ("study", "bench")


@dataclass
class DiffRequest(_ApiModel):
    """Compare two study manifests or two BENCH document sets.

    Both sides are *embedded documents*, not server-side paths — the
    service never reads the filesystem on behalf of a client.  The CLI
    (``repro diff``) loads files locally, normalises them, and submits
    this request through the session like every other subcommand.

    ``mode="study"``: ``a``/``b`` are study manifests (compacted
    ``manifest.json`` shape) or ``repro explore --format json`` study
    documents.  ``mode="bench"``: ``a``/``b`` are single BENCH documents
    or ``{name -> BENCH document}`` mappings.
    """

    kind: ClassVar[str] = "diff"

    a: Dict[str, Any]
    b: Dict[str, Any]
    mode: str = "study"
    #: Relative tolerance below which a metric counts as held; ``None``
    #: uses the mode default (0.0 for study, 0.25 for bench).
    tolerance: Optional[float] = None
    #: Metric names treated as noise and dropped before diffing (study).
    ignore: Optional[List[str]] = None
    #: Frontier objectives overriding the specs' (study mode).
    objectives: Optional[List[str]] = None
    #: Display labels for the two sides (default: source descriptions).
    a_label: Optional[str] = None
    b_label: Optional[str] = None

    def validate(self) -> None:
        owner = type(self).__name__
        for name in ("a", "b"):
            if not isinstance(getattr(self, name), dict):
                raise SchemaError(
                    f"{owner}.{name}",
                    f"expected a JSON object, got {getattr(self, name)!r}",
                )
        if self.mode not in DIFF_MODES:
            raise SchemaError(
                f"{owner}.mode", f"expected one of {DIFF_MODES}, got {self.mode!r}"
            )
        if self.tolerance is not None:
            if isinstance(self.tolerance, bool) or not isinstance(
                self.tolerance, (int, float)
            ):
                raise SchemaError(
                    f"{owner}.tolerance", f"expected a number, got {self.tolerance!r}"
                )
            if not math.isfinite(self.tolerance) or self.tolerance < 0:
                raise SchemaError(
                    f"{owner}.tolerance",
                    f"must be a finite number >= 0, got {self.tolerance!r}",
                )
        for name in ("ignore", "objectives"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(item, str) and item for item in value
            ):
                raise SchemaError(
                    f"{owner}.{name}",
                    f"expected a list of non-empty strings, got {value!r}",
                )
            setattr(self, name, list(value))
        if self.objectives is not None:
            from repro.explore.spec import parse_objectives

            try:
                parse_objectives(self.objectives)
            except ValueError as exc:
                raise SchemaError(f"{owner}.objectives", str(exc)) from exc
        for name in ("a_label", "b_label"):
            if getattr(self, name) is not None:
                _check_str(owner, name, getattr(self, name))


#: Request types by wire tag, the dispatch table of :func:`request_from_dict`.
REQUEST_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        SimulateRequest,
        RooflineRequest,
        ScaleRequest,
        SweepRequest,
        ExploreRequest,
        DiffRequest,
    )
}


def request_from_dict(payload: Any) -> _ApiModel:
    """Parse any request document, dispatching on its ``kind`` tag."""
    if not isinstance(payload, dict):
        raise SchemaError("request", f"expected a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind is None:
        raise SchemaError(
            "request.kind",
            f"required field is missing (one of {sorted(REQUEST_TYPES)})",
        )
    request_type = REQUEST_TYPES.get(kind)
    if request_type is None:
        raise SchemaError(
            "request.kind", f"unknown kind {kind!r}; known: {sorted(REQUEST_TYPES)}"
        )
    return request_type.from_dict(payload)


# ----------------------------------------------------------------------
# results

@dataclass
class SimulateResult(_ApiModel):
    """Per-operation speedups and energy efficiency of one simulate run."""

    model: str
    config: str
    potentials: Dict[str, float] = field(default_factory=dict)
    speedups: Dict[str, float] = field(default_factory=dict)
    core_energy_efficiency: float = 1.0
    overall_energy_efficiency: float = 1.0

    def validate(self) -> None:
        owner = type(self).__name__
        _check_str(owner, "model", self.model)
        _check_str(owner, "config", self.config)
        _check_number_map(owner, "potentials", self.potentials)
        _check_number_map(owner, "speedups", self.speedups)
        for name in ("core_energy_efficiency", "overall_energy_efficiency"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"{owner}.{name}", f"expected a number, got {value!r}")


@dataclass
class RooflineResult(_ApiModel):
    """Roofline placement plus stall/bound summary of one run."""

    model: str
    config: str
    #: A :meth:`repro.analysis.roofline.RooflineReport.as_dict` document.
    roofline: Dict[str, Any] = field(default_factory=dict)
    memory_bound_operations: int = 0
    total_operations: int = 0
    stall_fraction: float = 0.0
    speedup: float = 1.0
    compute_speedup: float = 1.0

    def validate(self) -> None:
        owner = type(self).__name__
        _check_str(owner, "model", self.model)
        _check_str(owner, "config", self.config)
        if not isinstance(self.roofline, dict):
            raise SchemaError(
                f"{owner}.roofline", f"expected an object, got {self.roofline!r}"
            )
        for name in ("memory_bound_operations", "total_operations"):
            _check_int(owner, name, getattr(self, name), minimum=0)
        for name in ("stall_fraction", "speedup", "compute_speedup"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"{owner}.{name}", f"expected a number, got {value!r}")


@dataclass
class ScaleResult(_ApiModel):
    """Multi-device scaling outcome: headline numbers plus the full report."""

    model: str
    config: str
    partition: str = "data"
    num_devices: int = 1
    #: Human-readable interconnect summary (``Interconnect.describe()``).
    link: str = "ideal (unbounded)"
    speedup: float = 1.0
    efficiency: float = 1.0
    comm_fraction: float = 0.0
    single_device_cycles: int = 0
    scaled_cycles: int = 0
    #: A :meth:`repro.scale.ScalingReport.as_dict` document.
    report: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        owner = type(self).__name__
        _check_str(owner, "model", self.model)
        _check_str(owner, "config", self.config)
        _check_str(owner, "partition", self.partition)
        _check_str(owner, "link", self.link)
        _check_int(owner, "num_devices", self.num_devices)
        for name in ("single_device_cycles", "scaled_cycles"):
            _check_int(owner, name, getattr(self, name), minimum=0)
        for name in ("speedup", "efficiency", "comm_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"{owner}.{name}", f"expected a number, got {value!r}")
        if not isinstance(self.report, dict):
            raise SchemaError(
                f"{owner}.report", f"expected an object, got {self.report!r}"
            )


@dataclass
class SweepResult(_ApiModel):
    """One-knob sweep outcome: the underlying study document plus labels."""

    model: str
    knob: str
    values: List[Any] = field(default_factory=list)
    #: A :func:`repro.explore.report.study_to_dict` document.
    study: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        owner = type(self).__name__
        _check_str(owner, "model", self.model)
        _check_str(owner, "knob", self.knob)
        if not isinstance(self.values, (list, tuple)):
            raise SchemaError(f"{owner}.values", f"expected a list, got {self.values!r}")
        self.values = list(self.values)
        if not isinstance(self.study, dict):
            raise SchemaError(f"{owner}.study", f"expected an object, got {self.study!r}")


@dataclass
class ExploreResult(_ApiModel):
    """Design-space study outcome: the full study document."""

    #: A :func:`repro.explore.report.study_to_dict` document.
    study: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        owner = type(self).__name__
        if not isinstance(self.study, dict):
            raise SchemaError(f"{owner}.study", f"expected an object, got {self.study!r}")


@dataclass
class DiffResult(_ApiModel):
    """Outcome of a lineage diff (study or bench mode).

    ``deltas`` holds per-point metric deltas in study mode and watched
    BENCH metric rows in bench mode; ``regressions`` counts the entries
    ``--fail-on regressed`` trips on (regressed metrics + removed points
    + frontier departures for studies, gated regressed rows for bench),
    ``changed`` everything that moved at all.
    """

    mode: str = "study"
    a: str = ""
    b: str = ""
    tolerance: float = 0.0
    identical: bool = True
    regressions: int = 0
    changed: int = 0
    summary: Dict[str, Any] = field(default_factory=dict)
    deltas: List[Dict[str, Any]] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    frontier: Dict[str, Any] = field(default_factory=dict)
    attribution: List[Dict[str, Any]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def validate(self) -> None:
        owner = type(self).__name__
        if self.mode not in DIFF_MODES:
            raise SchemaError(
                f"{owner}.mode", f"expected one of {DIFF_MODES}, got {self.mode!r}"
            )
        for name in ("a", "b"):
            if not isinstance(getattr(self, name), str):
                raise SchemaError(
                    f"{owner}.{name}",
                    f"expected a string, got {getattr(self, name)!r}",
                )
        if (
            isinstance(self.tolerance, bool)
            or not isinstance(self.tolerance, (int, float))
            or not math.isfinite(self.tolerance)
            or self.tolerance < 0
        ):
            raise SchemaError(
                f"{owner}.tolerance",
                f"expected a finite number >= 0, got {self.tolerance!r}",
            )
        if not isinstance(self.identical, bool):
            raise SchemaError(
                f"{owner}.identical", f"expected a boolean, got {self.identical!r}"
            )
        for name in ("regressions", "changed"):
            _check_int(owner, name, getattr(self, name), minimum=0)
        for name in ("summary", "frontier"):
            if not isinstance(getattr(self, name), dict):
                raise SchemaError(
                    f"{owner}.{name}",
                    f"expected an object, got {getattr(self, name)!r}",
                )
        for name in ("deltas", "attribution"):
            value = getattr(self, name)
            if not isinstance(value, list) or not all(
                isinstance(item, dict) for item in value
            ):
                raise SchemaError(
                    f"{owner}.{name}", f"expected a list of objects, got {value!r}"
                )
        for name in ("added", "removed", "warnings"):
            value = getattr(self, name)
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise SchemaError(
                    f"{owner}.{name}", f"expected a list of strings, got {value!r}"
                )


#: Result type for each request kind (the envelope's ``result`` payload).
RESULT_TYPES: Dict[str, type] = {
    "simulate": SimulateResult,
    "roofline": RooflineResult,
    "scale": ScaleResult,
    "sweep": SweepResult,
    "explore": ExploreResult,
    "diff": DiffResult,
}


@dataclass
class ApiResult(_ApiModel):
    """Envelope around every result: kind, schema version, timing, engine.

    ``engine`` is the per-request :class:`~repro.engine.EngineStats`
    delta (what this request cost, even on a shared long-lived engine);
    ``elapsed_seconds`` the wall-clock spent inside the session.
    """

    kind: str = "simulate"
    result: Any = None
    engine: Dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def validate(self) -> None:
        owner = type(self).__name__
        if self.kind not in RESULT_TYPES:
            raise SchemaError(
                f"{owner}.kind", f"unknown kind {self.kind!r}; known: {sorted(RESULT_TYPES)}"
            )
        expected = RESULT_TYPES[self.kind]
        if not isinstance(self.result, expected):
            raise SchemaError(
                f"{owner}.result",
                f"expected a {expected.__name__} for kind {self.kind!r}, "
                f"got {type(self.result).__name__}",
            )
        if not isinstance(self.engine, dict):
            raise SchemaError(f"{owner}.engine", f"expected an object, got {self.engine!r}")
        if isinstance(self.elapsed_seconds, bool) or not isinstance(
            self.elapsed_seconds, (int, float)
        ):
            raise SchemaError(
                f"{owner}.elapsed_seconds",
                f"expected a number, got {self.elapsed_seconds!r}",
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "schema_version": SCHEMA_VERSION,
            "elapsed_seconds": self.elapsed_seconds,
            "engine": _plain(self.engine),
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "ApiResult":
        name = cls.__name__
        if not isinstance(payload, dict):
            raise SchemaError(name, f"expected a JSON object, got {type(payload).__name__}")
        payload = dict(payload)
        version = payload.pop("schema_version", SCHEMA_VERSION)
        if not isinstance(version, int) or isinstance(version, bool) or version < 1:
            raise SchemaError(f"{name}.schema_version", f"invalid version {version!r}")
        if version > SCHEMA_VERSION:
            raise SchemaError(
                f"{name}.schema_version",
                f"document version {version} is newer than this library "
                f"supports (schema {SCHEMA_VERSION}); upgrade repro",
            )
        kind = payload.get("kind")
        result_type = RESULT_TYPES.get(kind)
        if result_type is None:
            raise SchemaError(
                f"{name}.kind", f"unknown kind {kind!r}; known: {sorted(RESULT_TYPES)}"
            )
        if "result" not in payload:
            raise SchemaError(f"{name}.result", "required field is missing")
        unknown = sorted(set(payload) - {"kind", "result", "engine", "elapsed_seconds"})
        if unknown:
            raise SchemaError(f"{name}.{unknown[0]}", "unknown field")
        engine = payload.get("engine") or {}
        if not isinstance(engine, dict):
            raise SchemaError(f"{name}.engine", f"expected an object, got {engine!r}")
        return cls(
            kind=kind,
            result=result_type.from_dict(payload["result"]),
            engine=dict(engine),
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
        )


# ----------------------------------------------------------------------
# asynchronous jobs (repro.jobs)

#: Lifecycle states of an asynchronous job (see :mod:`repro.jobs`).
JOB_STATES = ("queued", "running", "succeeded", "failed", "cancelled")

#: States a job can never leave once entered.
JOB_TERMINAL_STATES = ("succeeded", "failed", "cancelled")


def _check_optional_time(owner: str, name: str, value: Any) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{owner}.{name}", f"expected a timestamp, got {value!r}")
    if not math.isfinite(value) or value < 0:
        raise SchemaError(
            f"{owner}.{name}", f"expected a non-negative timestamp, got {value!r}"
        )


@dataclass
class JobRecord(_ApiModel):
    """Wire envelope describing one asynchronous job's current state.

    Served by ``GET /v1/jobs`` / ``GET /v1/jobs/<id>`` and returned
    (status 202) by ``POST /v1/jobs``.  ``request_kind`` names the
    wrapped request's wire tag; ``request`` is its full document, so an
    operator can resubmit a job from its record alone.  ``events`` is
    the count of progress/state events recorded so far — the SSE stream
    at ``/v1/jobs/<id>/events`` replays them by sequence number.
    """

    kind: ClassVar[str] = "job"

    job_id: str
    request_kind: str
    state: str
    created_s: float
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    events: int = 0
    request: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        owner = type(self).__name__
        _check_str(owner, "job_id", self.job_id)
        if self.request_kind not in REQUEST_TYPES:
            raise SchemaError(
                f"{owner}.request_kind",
                f"unknown kind {self.request_kind!r}; known: {sorted(REQUEST_TYPES)}",
            )
        if self.state not in JOB_STATES:
            raise SchemaError(
                f"{owner}.state",
                f"unknown state {self.state!r}; known: {list(JOB_STATES)}",
            )
        _check_optional_time(owner, "created_s", self.created_s)
        if self.created_s is None:
            raise SchemaError(f"{owner}.created_s", "required field is missing")
        _check_optional_time(owner, "started_s", self.started_s)
        _check_optional_time(owner, "finished_s", self.finished_s)
        if self.error is not None:
            _check_str(owner, "error", self.error)
        if not isinstance(self.cancel_requested, bool):
            raise SchemaError(
                f"{owner}.cancel_requested",
                f"expected a boolean, got {self.cancel_requested!r}",
            )
        _check_int(owner, "events", self.events, minimum=0)
        if not isinstance(self.request, dict):
            raise SchemaError(
                f"{owner}.request", f"expected an object, got {self.request!r}"
            )


@dataclass
class JobResult(_ApiModel):
    """Wire envelope for a finished job (``GET /v1/jobs/<id>/result``).

    ``result`` is the :class:`ApiResult` envelope document of a
    succeeded job — byte-identical in content to what the blocking
    ``/v1/<kind>`` route would have returned — and ``None`` for failed
    or cancelled jobs, whose ``error`` (when failed) says why.
    """

    kind: ClassVar[str] = "job_result"

    job_id: str
    state: str
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def validate(self) -> None:
        owner = type(self).__name__
        _check_str(owner, "job_id", self.job_id)
        if self.state not in JOB_TERMINAL_STATES:
            raise SchemaError(
                f"{owner}.state",
                f"expected a terminal state {list(JOB_TERMINAL_STATES)}, "
                f"got {self.state!r}",
            )
        if self.state == "succeeded":
            if not isinstance(self.result, dict):
                raise SchemaError(
                    f"{owner}.result",
                    f"a succeeded job carries its ApiResult document, "
                    f"got {self.result!r}",
                )
        elif self.result is not None:
            raise SchemaError(
                f"{owner}.result",
                f"only succeeded jobs carry a result, state is {self.state!r}",
            )
        if self.error is not None:
            _check_str(owner, "error", self.error)

"""Declarative study specifications for design-space exploration.

A :class:`StudySpec` names a design space the way the paper's evaluation
does: a set of accelerator knobs (tile count, PE rows/columns, MACs per
PE, staging depth, datatype, power gating) crossed with workloads from
the model zoo and sparsity scenarios.  Specs are plain dicts — built in
Python, or loaded from JSON with :meth:`StudySpec.from_json` — and are
validated eagerly so a typo fails before any training or simulation runs.

:meth:`StudySpec.expand` turns the spec into concrete
:class:`DesignPoint` instances, either the full cartesian product or a
seeded random sample of it.  Every point carries a stable content hash
(:attr:`DesignPoint.point_id`) over everything that shapes its result, so
study manifests can be resumed and merged safely: the same spec always
expands to the same point ids, and any change to a point's inputs gives
it a new id.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.frontier import Objective
from repro.core.config import AcceleratorConfig
from repro.explore.scenarios import TRACED, parse_scenario
from repro.models.registry import available_models


def _apply_power_gating(config: AcceleratorConfig, value) -> AcceleratorConfig:
    if not isinstance(value, bool):
        raise ValueError(f"power_gating values must be booleans, got {value!r}")
    return replace(config, power_gated=value)


#: Sweepable accelerator knobs: name -> (apply, value coercion).
#: ``dram_bandwidth_gbps`` and ``sram_kb`` sweep the memory hierarchy, so
#: bandwidth-starved edge machines and the paper's Table 2 machine live in
#: one study; both knobs make the swept points memory-aware (finite
#: hierarchy), which the engine applies afresh to every cached compute
#: part (the cache keys only the staging-refill limit it implies).
KNOBS: Dict[str, Callable[[AcceleratorConfig, object], AcceleratorConfig]] = {
    "tiles": lambda c, v: replace(c, num_tiles=int(v)),
    "rows": lambda c, v: c.with_tile(rows=int(v)),
    "columns": lambda c, v: c.with_tile(columns=int(v)),
    "macs": lambda c, v: c.with_pe(lanes=int(v)),
    "staging": lambda c, v: c.with_pe(staging_depth=int(v)),
    "datatype": lambda c, v: c.with_pe(datatype=str(v)),
    "power_gating": _apply_power_gating,
    "dram_bandwidth_gbps": lambda c, v: c.with_hierarchy(
        dram_bandwidth_gbps=float(v)
    ),
    "sram_kb": lambda c, v: c.with_hierarchy(sram_kb=int(v)),
}


def _scale_num_devices(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(
            f"num_devices values must be integers >= 1, got {value!r}"
        )
    return value


def _scale_partition(value) -> str:
    from repro.scale.partition import check_partition

    if not isinstance(value, str):
        raise ValueError(f"partition values must be strings, got {value!r}")
    return check_partition(value)


def _scale_link_gbps(value) -> float:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ValueError(
            f"link_gbps values must be positive finite numbers, got {value!r}"
        )
    return float(value)


#: Multi-device scaling knobs (:mod:`repro.scale`): these shape how the
#: workload is partitioned across devices, not the per-device hardware,
#: so they are validated here but applied by the study runner's scale
#: pass instead of :meth:`DesignPoint.config`.  Points carrying any of
#: them additionally record ``num_devices`` / ``scaled_speedup`` /
#: ``scaling_efficiency`` / ``comm_fraction`` metrics.
SCALE_KNOBS: Dict[str, Callable[[object], object]] = {
    "num_devices": _scale_num_devices,
    "partition": _scale_partition,
    "link_gbps": _scale_link_gbps,
}

#: Metrics a study records per point, with their optimisation direction.
#: ``True`` means higher is better.
METRIC_ORIENTATIONS: Dict[str, bool] = {
    "speedup": True,
    "energy_efficiency": True,
    "core_energy_efficiency": True,
    "area_overhead": False,
    "chip_area_overhead": False,
    "stall_fraction": False,
    "dram_bytes": False,
    "memory_bound_fraction": False,
    "operational_intensity": True,
    # Multi-device scaling metrics, recorded for points carrying any
    # SCALE_KNOBS assignment.
    "scaled_speedup": True,
    "scaling_efficiency": True,
    "comm_fraction": False,
}

#: The paper's three-way trade-off, the default frontier objectives.
DEFAULT_OBJECTIVES: Tuple[str, ...] = (
    "speedup", "energy_efficiency", "area_overhead",
)


def parse_objectives(names: Sequence[str]) -> List[Objective]:
    """Objective list from metric names, orienting each from the registry.

    Bare names (``"speedup"``) must be registered metrics so their
    orientation is known; explicit directions (``"baseline_energy_pj:min"``)
    are accepted for any recorded metric, registered or not.
    """
    if not names:
        raise ValueError("at least one objective is required")
    objectives = []
    for name in names:
        parsed = Objective.parse(name)
        if ":" not in name:
            if parsed.name not in METRIC_ORIENTATIONS:
                raise ValueError(
                    f"unknown objective {parsed.name!r}; known metrics: "
                    f"{sorted(METRIC_ORIENTATIONS)} (or pass an explicit "
                    f"direction, e.g. {parsed.name}:min)"
                )
            parsed = Objective(parsed.name, maximize=METRIC_ORIENTATIONS[parsed.name])
        objectives.append(parsed)
    return objectives


@dataclass(frozen=True)
class DesignPoint:
    """One concrete configuration to evaluate: workload x scenario x knobs."""

    workload: str
    scenario: str
    knobs: Tuple[Tuple[str, object], ...]
    #: Trace/sampling parameters inherited from the spec; folded into the
    #: point id because they shape the simulated result.
    trace_params: Tuple[Tuple[str, object], ...] = ()

    @property
    def point_id(self) -> str:
        """Stable content hash of everything that shapes this point's result.

        Knobs are serialised in name order, matching the spec
        fingerprint's order-insensitivity: reordering a spec file's knob
        keys changes neither the fingerprint nor any point id, so a
        manifest written before the reorder still resumes fully.
        """
        payload = json.dumps(
            {
                "workload": self.workload,
                "scenario": self.scenario,
                "knobs": sorted(self.knobs, key=lambda pair: pair[0]),
                "trace_params": sorted(self.trace_params, key=lambda pair: pair[0]),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def config(self) -> AcceleratorConfig:
        """The per-device accelerator configuration with every hardware
        knob applied (scaling knobs shape the fleet, not the chip, and
        are read through :meth:`scale_plan` instead)."""
        config = AcceleratorConfig()
        for name, value in self.knobs:
            if name in KNOBS:
                config = KNOBS[name](config, value)
        return config

    def scale_plan(self) -> Optional[Dict[str, object]]:
        """The point's multi-device assignment, or ``None`` when single-chip.

        A dict of the :data:`SCALE_KNOBS` this point carries
        (``num_devices`` / ``partition`` / ``link_gbps``); the study
        runner fills in the defaults (1 device, data partition, the
        default interconnect) for whichever are absent.
        """
        plan = {name: value for name, value in self.knobs if name in SCALE_KNOBS}
        return plan or None

    @property
    def config_label(self) -> str:
        """Human-readable knob assignment, e.g. ``rows=8,staging=2``."""
        if not self.knobs:
            return "default"
        return ",".join(f"{name}={value}" for name, value in self.knobs)

    @property
    def label(self) -> str:
        """Full point label: workload, scenario (if synthetic) and knobs."""
        scenario = "" if self.scenario == TRACED else f"[{self.scenario}]"
        return f"{self.workload}{scenario} {self.config_label}"


@dataclass
class StudySpec:
    """A declarative design-space study.

    Parameters mirror the JSON spec format one-to-one::

        {
          "name": "geometry-vs-datatype",
          "workloads": ["snli", "squeezenet"],
          "knobs": {"rows": [1, 4, 8], "datatype": ["fp32", "bfloat16"]},
          "scenarios": ["traced", "random:0.7"],
          "mode": "cartesian",
          "objectives": ["speedup", "energy_efficiency", "area_overhead"]
        }

    ``mode: "random"`` with ``sample: N`` draws N points from the full
    cartesian space without replacement, deterministically from ``seed``.
    """

    name: str = "study"
    workloads: List[str] = field(default_factory=lambda: ["snli"])
    knobs: Dict[str, List] = field(default_factory=dict)
    scenarios: List[str] = field(default_factory=lambda: [TRACED])
    mode: str = "cartesian"
    sample: Optional[int] = None
    seed: int = 0
    objectives: List[str] = field(default_factory=lambda: list(DEFAULT_OBJECTIVES))
    #: Trace/simulation parameters shared by every point.
    epochs: int = 2
    batches_per_epoch: int = 2
    batch_size: int = 8
    max_groups: int = 48
    #: Traced samples kept per convolutional layer (``None``: the
    #: trainer's default of 4).  Studies sweeping ``num_devices`` past 4
    #: should raise it to the largest device count so data-parallel
    #: shards stay balanced.
    trace_max_batch: Optional[int] = None

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` on the first invalid field."""
        if not self.workloads:
            raise ValueError("spec needs at least one workload")
        known_models = set(available_models())
        for workload in self.workloads:
            if workload not in known_models:
                raise ValueError(
                    f"unknown workload {workload!r}; known: {sorted(known_models)}"
                )
        for knob, values in self.knobs.items():
            if knob not in KNOBS and knob not in SCALE_KNOBS:
                raise ValueError(
                    f"unknown knob {knob!r}; known: "
                    f"{sorted(KNOBS) + sorted(SCALE_KNOBS)}"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"knob {knob!r} needs a non-empty list of values, got {values!r}"
                )
            for value in values:
                try:
                    if knob in KNOBS:
                        KNOBS[knob](AcceleratorConfig(), value)
                    else:
                        SCALE_KNOBS[knob](value)
                except (ValueError, TypeError, KeyError) as exc:
                    raise ValueError(
                        f"knob {knob!r}: invalid value {value!r}: {exc}"
                    ) from exc
        self.scenarios = [parse_scenario(s) for s in self.scenarios]
        if not self.scenarios:
            raise ValueError("spec needs at least one sparsity scenario")
        if self.mode not in ("cartesian", "random"):
            raise ValueError(
                f"mode must be 'cartesian' or 'random', got {self.mode!r}"
            )
        if self.mode == "random":
            if not self.sample or self.sample < 1:
                raise ValueError("mode 'random' requires a positive 'sample' count")
        elif self.sample is not None:
            raise ValueError("'sample' is only meaningful with mode 'random'")
        parse_objectives(self.objectives)
        for name in ("epochs", "batches_per_epoch", "batch_size", "max_groups"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.trace_max_batch is not None and self.trace_max_batch < 1:
            raise ValueError(
                f"trace_max_batch must be >= 1, got {self.trace_max_batch}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Dict) -> "StudySpec":
        """Build and validate a spec from a plain dict (the JSON format)."""
        if not isinstance(payload, dict):
            raise ValueError(f"study spec must be a JSON object, got {type(payload).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown spec field(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**payload)

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "StudySpec":
        """Load a spec from a JSON file."""
        text = Path(path).read_text()
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"study spec {path}: invalid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def to_dict(self) -> Dict:
        """JSON-ready dict; ``from_dict(to_dict())`` round-trips."""
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "knobs": {k: list(v) for k, v in self.knobs.items()},
            "scenarios": list(self.scenarios),
            "mode": self.mode,
            "sample": self.sample,
            "seed": self.seed,
            "objectives": list(self.objectives),
            "epochs": self.epochs,
            "batches_per_epoch": self.batches_per_epoch,
            "batch_size": self.batch_size,
            "max_groups": self.max_groups,
            "trace_max_batch": self.trace_max_batch,
        }

    def fingerprint(self) -> str:
        """Content hash of the result-shaping spec fields.

        Study manifests use this to detect drift that invalidates every
        completed point (different workloads, knob values, scenarios or
        trace parameters — anything that changes point ids).  Fields that
        only affect presentation or which subset of the space runs
        (``name``, ``objectives``, ``mode``, ``sample``) are excluded, so
        renaming a study, changing its frontier objectives or resuming a
        sampled subset of a finished study all reuse the manifest.
        """
        fields = {
            "workloads": list(self.workloads),
            "knobs": {k: list(self.knobs[k]) for k in sorted(self.knobs)},
            "scenarios": list(self.scenarios),
            "seed": self.seed,
            "epochs": self.epochs,
            "batches_per_epoch": self.batches_per_epoch,
            "batch_size": self.batch_size,
            "max_groups": self.max_groups,
        }
        # Included only when set, so manifests written before the field
        # existed keep resuming under the default trace cap.
        if self.trace_max_batch is not None:
            fields["trace_max_batch"] = self.trace_max_batch
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    @property
    def space_size(self) -> int:
        """Size of the full cartesian space (before any sampling)."""
        size = len(self.workloads) * len(self.scenarios)
        for values in self.knobs.values():
            size *= len(values)
        return size

    def _point_at(self, index: int, trace_params) -> DesignPoint:
        """Decode one flat space index into its design point.

        The index space is workload-major, then scenario, then the knob
        product in row-major (first knob varies slowest) order — exactly
        the order of ``itertools.product`` over the knob value lists.
        """
        knob_names = list(self.knobs)
        value_lists = [self.knobs[name] for name in knob_names]
        combos = 1
        for values in value_lists:
            combos *= len(values)
        workload_index, rest = divmod(index, len(self.scenarios) * combos)
        scenario_index, combo_index = divmod(rest, combos)
        knobs = []
        for name, values in zip(reversed(knob_names), reversed(value_lists)):
            combo_index, value_index = divmod(combo_index, len(values))
            knobs.append((name, values[value_index]))
        return DesignPoint(
            workload=self.workloads[workload_index],
            scenario=self.scenarios[scenario_index],
            knobs=tuple(reversed(knobs)),
            trace_params=trace_params,
        )

    def expand(self) -> List[DesignPoint]:
        """Concrete design points, in deterministic order.

        Both modes decode flat point indices with :meth:`_point_at`.
        Cartesian mode decodes every index, which yields the full product;
        random mode draws ``sample`` distinct point indices using ``seed``
        and decodes only those, so a small sample of a huge space never
        materialises the whole product.  The draw is over point indices,
        so the same spec always yields the same subset regardless of
        platform.
        """
        trace_params = (
            ("epochs", self.epochs),
            ("batches_per_epoch", self.batches_per_epoch),
            ("batch_size", self.batch_size),
            ("max_groups", self.max_groups),
            ("seed", self.seed),
        )
        if self.trace_max_batch is not None:
            # Appended only when set: point ids of pre-existing specs
            # (and their resumable manifests) stay stable.
            trace_params += (("trace_max_batch", self.trace_max_batch),)
        indices = range(self.space_size)
        if self.mode == "random" and self.sample < self.space_size:
            rng = np.random.default_rng(self.seed)
            indices = sorted(
                rng.choice(self.space_size, size=self.sample, replace=False)
            )
        return [self._point_at(int(i), trace_params) for i in indices]

"""The paper ledger: each figure, table and ablation beside the paper's claim.

One plain script computes the paper's figures and tables, and the
design-choice ablations, from one :class:`repro.engine.SimulationEngine`,
so each workload trains once per run (or loads from ``REPRO_CACHE_DIR``).
It checks every entry's invariants: never slower than the baseline, at
most the staging depth, 2-deep at most 3-deep, Fig. 17's falling trend,
and the rest below.  It prints one ledger table (claim | measured | paper
| invariants) and writes ``BENCH_paper.json``.  Each entry there holds
the measured values at full precision, the paper's value where the paper
quotes one, the checks that failed and ``invariants_hold``, the boolean
``repro diff --mode bench`` gates on.  The script exits 1, naming every
failed check, when an invariant is false.

Absolute numbers differ from the paper: the workloads are scaled-down
stand-ins and the substrate is an analytical simulator (see
docs/architecture.md).  The ledger shows by how much.

Run::

    PYTHONPATH=src:. python benchmarks/bench_paper.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from benchmarks.common import engine_kwargs
from repro.analysis.metrics import geometric_mean
from repro.analysis.reporting import format_table
from repro.core.accelerator import Accelerator
from repro.core.backside import PreScheduler
from repro.core.config import AcceleratorConfig, bfloat16_config
from repro.core.dataflow import TileWorkPartitioner
from repro.core.interconnect import ConnectivityPattern
from repro.core.pe import BaselinePE, TensorDashPE
from repro.core.scheduler import BatchScheduler
from repro.energy.area_model import AreaModel
from repro.energy.power_model import PowerModel
from repro.engine import SimulationEngine
from repro.lineage.bench import resolve_path
from repro.memory.traffic import TrafficCounter
from repro.models.registry import PAPER_MODELS
from repro.simulation.cycle_sim import LayerSimulator
from repro.simulation.runner import ExperimentRunner
from repro.simulation.streams import operation_streams
from repro.training.tracing import LayerTrace

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_paper.json"

#: Every trace: 3 epochs (6 for Fig. 14) of 2 batches of 8, seed 0.
EPOCHS = 3
FIG14_EPOCHS = 6
BATCHES_PER_EPOCH = 2
BATCH_SIZE = 8
SEED = 0
#: Groups sampled per operation: 48 for the per-model rows, 32 for the
#: sweeps (Figs. 14, 17, 18 and 19).
MAX_GROUPS = 48
SWEEP_MAX_GROUPS = 32
OPERATIONS = ("AxW", "AxG", "WxG", "Total")

#: The printed ledger, one row per claim: (entry, measured value's path
#: in the entry, claim, the paper's value or "-" where it quotes none).
#: ``repro.lineage.bench`` watches every path (informational).
LEDGER = (
    ("fig01", "geomean.Total", "Potential speedup, geomean (Fig. 1)", "~3x"),
    ("fig13", "geomean.Total", "Speedup, geomean (Fig. 13)", "1.95x"),
    ("fig13", "series.densenet121.WxG", "densenet121 WxG speedup (Fig. 13)",
     "negligible"),
    ("fig14", "series.resnet50_DS90.epoch0",
     "resnet50_DS90 speedup, epoch 0 (Fig. 14)", "starts higher"),
    ("fig14", "series.resnet50_DS90.epoch5",
     "resnet50_DS90 speedup, epoch 5 (Fig. 14)", "then settles"),
    ("fig15", "geomean.core", "Core energy efficiency, geomean (Fig. 15)",
     "1.89x"),
    ("fig15", "geomean.overall",
     "Overall energy efficiency, geomean (Fig. 15)", "1.6x"),
    ("fig16", "models.alexnet.baseline.core",
     "alexnet baseline energy in the core (Fig. 16)", "dominant"),
    ("fig17", "geomean.1", "Speedup, 1 PE row, geomean (Fig. 17)", "2.1x"),
    ("fig17", "geomean.16", "Speedup, 16 PE rows, geomean (Fig. 17)", "1.72x"),
    ("fig18", "geomean.4", "Speedup, 4 PE columns, geomean (Fig. 18)", "-"),
    ("fig18", "geomean.16", "Speedup, 16 PE columns, geomean (Fig. 18)",
     "essentially flat"),
    ("fig19", "geomean.2-deep", "Speedup, 2-deep staging, geomean (Fig. 19)",
     "lower, still considerable"),
    ("fig19", "geomean.3-deep", "Speedup, 3-deep staging, geomean (Fig. 19)",
     "-"),
    ("fig20", "series.10%.Total", "Speedup, 10% random sparsity (Fig. 20)",
     "~1.1x"),
    ("fig20", "series.90%.Total", "Speedup, 90% random sparsity (Fig. 20)",
     "~2.95x"),
    ("table3", "area_overhead", "Compute area overhead (Table 3)", "1.09x"),
    ("table3", "chip_area_overhead", "Chip area overhead (Table 3)",
     "~1.0005x"),
    ("table3", "power_overhead", "Compute power overhead (Table 3)", "1.02x"),
    ("bfloat16", "area_overhead", "bfloat16 compute area overhead", "1.13x"),
    ("bfloat16", "chip_area_overhead", "bfloat16 chip area overhead",
     "negligible"),
    ("bfloat16", "power_overhead", "bfloat16 compute power overhead", "1.05x"),
    ("bfloat16", "core_efficiency", "bfloat16 core energy efficiency",
     "1.84x"),
    ("bfloat16", "overall_efficiency", "bfloat16 overall energy efficiency",
     "1.43x"),
    ("gcn", "speedup", "GCN speedup", "~1.01x"),
    ("gcn", "overall_efficiency", "GCN overall energy efficiency", "~0.995x"),
    ("gcn", "gated_overall_efficiency",
     "GCN overall energy efficiency, power gated", "1.0x"),
    ("interconnect", "variants.3-deep paper (8 options).speedup",
     "Speedup at 70% sparsity, 8 interconnect options (ablation)", "-"),
    ("interconnect", "variants.3-deep wide (12 options).speedup",
     "Speedup at 70% sparsity, 12 interconnect options (ablation)", "-"),
    ("multitile", "models.alexnet.aggregate_speedup",
     "alexnet AxW speedup, groups summed (ablation)", "-"),
    ("multitile", "models.alexnet.latency_speedup",
     "alexnet AxW speedup, slowest of 16 tiles (ablation)", "-"),
    ("prescheduling", "models.alexnet.row_compression",
     "alexnet activation rows, pre-scheduled compression (ablation)",
     "up to 3x"),
    ("scheduler_quality", "sparsity.90%.tensordash",
     "Speedup at 90% sparsity, TensorDash scheduler (ablation)", "-"),
    ("scheduler_quality", "sparsity.90%.oracle",
     "Speedup at 90% sparsity, crossbar oracle (ablation)", "-"),
    ("two_side", "pairs.A70% B30%.one_side",
     "PE speedup at A 70% / B 30% sparsity, one side (ablation)",
     "one side suffices"),
    ("two_side", "pairs.A70% B30%.two_side",
     "PE speedup at A 70% / B 30% sparsity, two sides (ablation)", "-"),
)


def ledger_entry(name: str, values: dict, checks) -> dict:
    """One ``BENCH_paper.json`` entry from a row's values and checks.

    ``checks`` holds ``(invariant, holds)`` pairs; the entry lists the
    invariants that do not hold under ``failed``.
    """
    failed = [invariant for invariant, holds in checks if not holds]
    paper = {
        path: quoted
        for entry, path, _, quoted in LEDGER
        if entry == name and quoted != "-"
    }
    return {
        **values,
        "paper": paper,
        "failed": failed,
        "invariants_hold": not failed,
    }


def _trace(engine: SimulationEngine, model: str, epochs: int = EPOCHS):
    return engine.trace(
        model, epochs=epochs, batches_per_epoch=BATCHES_PER_EPOCH,
        batch_size=BATCH_SIZE, seed=SEED,
    )


def _runner(engine, config=None, max_groups=MAX_GROUPS) -> ExperimentRunner:
    return ExperimentRunner(config, max_groups=max_groups, engine=engine)


def _final(engine, model, config=None, max_groups=MAX_GROUPS):
    """A model's final traced epoch simulated under ``config``."""
    runner = _runner(engine, config, max_groups)
    return runner.run_final_epoch(_trace(engine, model))


def _geomeans(series: dict) -> dict:
    return {
        op: geometric_mean(values[op] for values in series.values())
        for op in OPERATIONS
    }


def _near(value: float, target: float, tolerance: float) -> bool:
    return abs(value - target) <= tolerance


# -- Figures 1 and 13-16: per-model rows --------------------------------
def fig01(engine):
    """Fig. 1: potential speedup of skipping zero-operand MACs.

    Per model and operation, ``all MACs / remaining MACs`` once the MACs
    whose targeted operand is zero are removed, from the traced operands.
    """
    series = {
        model: ExperimentRunner.potential_speedups_from_trace(
            _trace(engine, model).final_epoch()
        )
        for model in PAPER_MODELS
    }
    geomean = _geomeans(series)
    checks = [
        (f"{model} {op} potential at least 1x", value >= 1.0)
        for model, values in series.items()
        for op, value in values.items()
    ]
    checks.append(("geomean potential above 1.3x", geomean["Total"] > 1.3))
    return {"series": series, "geomean": geomean}, checks


def fig13(engine):
    """Fig. 13: TensorDash speedup over the baseline, per model and operation."""
    series = {
        model: _final(engine, model).per_operation_speedups()
        for model in PAPER_MODELS
    }
    geomean = _geomeans(series)
    checks = []
    for model, values in series.items():
        for op, value in values.items():
            checks.append((f"{model} {op} not slower than the baseline",
                           value >= 1.0 - 1e-9))
            checks.append((f"{model} {op} within the 3x staging cap",
                           value <= 3.0 + 1e-9))
    checks.append(("geomean speedup above 1.3x", geomean["Total"] > 1.3))
    return {"series": series, "geomean": geomean}, checks


FIG14_MODELS = ("alexnet", "squeezenet", "resnet50_DS90", "densenet121")


def fig14(engine):
    """Fig. 14: speedup at each epoch of a 6-epoch run (one batch each)."""
    runner = _runner(engine, max_groups=SWEEP_MAX_GROUPS)
    series = {}
    for model in FIG14_MODELS:
        points = runner.run_over_training(_trace(engine, model, FIG14_EPOCHS))
        series[model] = {
            f"epoch{index}": point.speedup() for index, point in enumerate(points)
        }
    checks = []
    for model, speedups in series.items():
        values = list(speedups.values())
        checks.append((f"{model} traced every epoch",
                       len(values) == FIG14_EPOCHS))
        checks.extend(
            (f"{model} {epoch} between 1x and 3x",
             1.0 - 1e-9 <= value <= 3.0 + 1e-9)
            for epoch, value in speedups.items()
        )
        # The paper's curves stay within a modest band.
        checks.append((f"{model} stable (range under 1.2)",
                       max(values) - min(values) < 1.2))
    return {"series": series}, checks


def fig15(engine):
    """Fig. 15: core and overall (with memories) energy efficiency."""
    runner = _runner(engine)
    models = {}
    for model in PAPER_MODELS:
        report = runner.energy_report(_final(engine, model))
        models[model] = {
            "core": report.core_efficiency,
            "overall": report.overall_efficiency,
        }
    core = geometric_mean(row["core"] for row in models.values())
    overall = geometric_mean(row["overall"] for row in models.values())
    checks = []
    for model, row in models.items():
        checks.append((f"{model}: memory energy dilutes the core ratio",
                       row["core"] >= row["overall"]))
        checks.append((f"{model}: no energy cost overall",
                       row["overall"] >= 0.99))
    checks += [
        ("geomean core efficiency above 1.3x", core > 1.3),
        ("geomean overall efficiency above 1.1x", overall > 1.1),
        ("geomean core above overall", core > overall),
    ]
    return {"models": models, "geomean": {"core": core, "overall": overall}}, checks


#: The conv-heavy models, whose core energy exceeds their DRAM energy;
#: the fc-dominated stand-ins move more bytes per MAC.
FIG16_CONV_HEAVY = ("alexnet", "vgg16", "squeezenet", "densenet121",
                    "resnet50", "resnet50_DS90", "resnet50_SM90")


def fig16(engine):
    """Fig. 16: energy split into DRAM, core and SRAM, baseline = 1."""
    runner = _runner(engine)
    models = {}
    for model in PAPER_MODELS:
        report = runner.energy_report(_final(engine, model))
        baseline_total = report.baseline.total_pj
        models[model] = {
            "baseline": report.baseline.fractions(),
            "tensordash_vs_baseline": {
                "core": report.tensordash.core_pj / baseline_total,
                "sram": report.tensordash.sram_pj / baseline_total,
                "dram": report.tensordash.dram_pj / baseline_total,
            },
        }
    checks = []
    for model, row in models.items():
        base, td = row["baseline"], row["tensordash_vs_baseline"]
        checks.append((f"{model}: core above SRAM energy",
                       base["core"] > base["sram"]))
        if model in FIG16_CONV_HEAVY:
            checks.append((f"{model}: core above DRAM energy",
                           base["core"] > base["dram"]))
        # Memory energy is the same model for both designs.
        checks.append((f"{model}: same DRAM energy",
                       abs(td["dram"] - base["dram"]) < 1e-6))
        checks.append((f"{model}: same SRAM energy",
                       abs(td["sram"] - base["sram"]) < 1e-6))
        checks.append((f"{model}: total at most the baseline's",
                       td["core"] + td["dram"] + td["sram"] <= 1.0 + 1e-6))
    return {"models": models}, checks


# -- Figures 17-19: accelerator geometry sweeps -------------------------
def _sweep(engine, configs: dict, models) -> dict:
    """Final-epoch speedups per configuration label and model."""
    return {
        label: {
            model: _final(engine, model, config, SWEEP_MAX_GROUPS).speedup()
            for model in models
        }
        for label, config in configs.items()
    }


FIG17_ROWS = (1, 2, 4, 8, 16)
FIG17_MODELS = ("alexnet", "squeezenet", "vgg16", "img2txt")


def fig17(engine):
    """Fig. 17: speedup as PE rows per tile grow (columns fixed at 4).

    Every row waits for the one with the densest stream, so the speedup
    falls as rows are added.
    """
    base = AcceleratorConfig()
    speedups = _sweep(
        engine, {str(rows): base.with_tile(rows=rows) for rows in FIG17_ROWS},
        FIG17_MODELS,
    )
    geomean = {label: geometric_mean(row.values()) for label, row in speedups.items()}
    labels = [str(rows) for rows in FIG17_ROWS]
    checks = [
        (f"{later} rows at most {earlier} rows",
         geomean[later] <= geomean[earlier] + 1e-6)
        for earlier, later in zip(labels, labels[1:])
    ]
    checks.append(("1 row above 16 rows", geomean["1"] > geomean["16"]))
    return {"speedups": speedups, "geomean": geomean}, checks


FIG18_MODELS = ("alexnet", "squeezenet", "vgg16", "img2txt", "densenet121")


def fig18(engine):
    """Fig. 18: speedup with 4 and 16 PE columns per tile (rows fixed at 4).

    Columns share their row's schedule, so the speedup barely moves.
    """
    base = AcceleratorConfig()
    speedups = _sweep(
        engine, {str(cols): base.with_tile(columns=cols) for cols in (4, 16)},
        FIG18_MODELS,
    )
    geomean = {label: geometric_mean(row.values()) for label, row in speedups.items()}
    checks = []
    for model in FIG18_MODELS:
        narrow, wide = speedups["4"][model], speedups["16"][model]
        checks.append((f"{model}: 16 columns within 10% of 4",
                       wide == narrow or abs(wide - narrow) / narrow < 0.1))
    return {"speedups": speedups, "geomean": geomean}, checks


FIG19_MODELS = ("densenet121", "squeezenet", "img2txt", "resnet50_DS90")


def fig19(engine):
    """Fig. 19: speedup with 2-deep and 3-deep staging buffers."""
    base = AcceleratorConfig()
    speedups = _sweep(
        engine, {"2-deep": base.with_pe(staging_depth=2), "3-deep": base},
        FIG19_MODELS,
    )
    geomean = {label: geometric_mean(row.values()) for label, row in speedups.items()}
    checks = []
    for model in FIG19_MODELS:
        shallow, deep = speedups["2-deep"][model], speedups["3-deep"][model]
        checks.append((f"{model}: 2-deep at most 3-deep", shallow <= deep + 1e-9))
        checks.append((f"{model}: 2-deep at least 1x", shallow >= 1.0 - 1e-9))
        checks.append((f"{model}: 2-deep within its 2x cap", shallow <= 2.0 + 1e-9))
    return {"speedups": speedups, "geomean": geomean}, checks


# -- Figure 20: synthetic sparsity --------------------------------------
FIG20_LEVELS = tuple(round(0.1 * i, 1) for i in range(1, 10))
FIG20_SAMPLES = 3
#: DenseNet-121's third convolution in the scaled zoo model: growth-rate
#: channels, a 3x3 kernel.
FIG20_CHANNELS_IN = 48
FIG20_CHANNELS_OUT = 12
FIG20_SPATIAL = 16
FIG20_BATCH = 2


def _random_trace(sparsity: float, seed: int) -> LayerTrace:
    rng = np.random.default_rng(seed)
    activation_mask = rng.random(
        (FIG20_BATCH, FIG20_CHANNELS_IN, FIG20_SPATIAL, FIG20_SPATIAL)
    ) >= sparsity
    gradient_mask = rng.random(
        (FIG20_BATCH, FIG20_CHANNELS_OUT, FIG20_SPATIAL, FIG20_SPATIAL)
    ) >= sparsity
    return LayerTrace(
        layer_name=f"densenet_conv3_s{sparsity}",
        layer_type="conv",
        kernel=3,
        stride=1,
        padding=1,
        activation_mask=activation_mask,
        output_gradient_mask=gradient_mask,
        weight_mask=np.ones(
            (FIG20_CHANNELS_OUT, FIG20_CHANNELS_IN, 3, 3), dtype=bool
        ),
        activation_sparsity=sparsity,
        gradient_sparsity=sparsity,
        macs=1,
    )


def fig20():
    """Fig. 20: speedup on one conv layer of random sparsity, 10% to 90%.

    The measured speedup should track the ideal ``1 / (1 - sparsity)``
    up to the 3-deep staging buffer's 3x cap.
    """
    simulator = LayerSimulator(max_groups=24)
    series = {}
    for sparsity in FIG20_LEVELS:
        per_op = {op: [] for op in OPERATIONS}
        potentials = []
        for sample in range(FIG20_SAMPLES):
            result = simulator.simulate_layer(_random_trace(sparsity, seed=sample))
            for op in OPERATIONS[:3]:
                per_op[op].append(result.speedup(op))
            per_op["Total"].append(result.speedup())
            # The stream-level work-reduction bound (edge-padding zeros
            # included, which both designs see) is the "ideal".
            macs_total = sum(o.macs_total for o in result.operations.values())
            macs_effectual = sum(
                o.macs_effectual for o in result.operations.values()
            )
            potentials.append(macs_total / max(macs_effectual, 1))
        level = {op: float(np.mean(values)) for op, values in per_op.items()}
        level["potential"] = float(np.mean(potentials))
        series[f"{sparsity:.0%}"] = level
    checks = []
    previous_total = 0.0
    for label, values in series.items():
        ideal = min(values["potential"], 3.0)
        # TensorDash never beats the work-reduction bound; the gap comes
        # from the 4-row tile synchronisation (Fig. 17), not the scheduler.
        checks.append((f"{label}: at most the ideal",
                       values["Total"] <= ideal + 0.05))
        checks.append((f"{label}: at least 0.62x the ideal",
                       values["Total"] >= 0.62 * ideal))
        checks.append((f"{label}: not below the sparser level before",
                       values["Total"] >= previous_total - 0.05))
        previous_total = values["Total"]
    checks.append(("90% above 2.2x", series["90%"]["Total"] > 2.2))
    checks.append(("10% below 1.5x", series["10%"]["Total"] < 1.5))
    return {"series": series}, checks


# -- Table 3, bfloat16 and GCN ------------------------------------------
def table3(engine):
    """Table 3: compute area and power of TensorDash over the baseline (FP32)."""
    area, power = AreaModel(), PowerModel()
    runner = _runner(engine)
    core = geometric_mean(
        runner.energy_report(_final(engine, model)).core_efficiency
        for model in PAPER_MODELS
    )
    values = {
        "area_tensordash": area.tensordash().as_dict(),
        "area_baseline": area.baseline().as_dict(),
        "power_tensordash": power.tensordash().as_dict(),
        "power_baseline": power.baseline().as_dict(),
        "area_overhead": area.compute_overhead(),
        "chip_area_overhead": area.chip_overhead(),
        "power_overhead": power.power_overhead(),
        "core_energy_efficiency": core,
    }
    checks = [
        ("area overhead 1.09x +- 0.02", _near(values["area_overhead"], 1.09, 0.02)),
        ("power overhead 1.02x +- 0.02", _near(values["power_overhead"], 1.02, 0.02)),
        ("chip area overhead below 1.01x", values["chip_area_overhead"] < 1.01),
        ("core energy efficiency above 1.3x", core > 1.3),
    ]
    return values, checks


def bfloat16(engine):
    """Section 4.4: overheads and energy efficiency with bfloat16 PEs."""
    config = bfloat16_config()
    area, power = AreaModel(config), PowerModel(config)
    runner = _runner(engine, config)
    reports = [
        runner.energy_report(_final(engine, model, config))
        for model in PAPER_MODELS
    ]
    values = {
        "area_overhead": area.compute_overhead(),
        "chip_area_overhead": area.chip_overhead(),
        "power_overhead": power.power_overhead(),
        "core_efficiency": geometric_mean(r.core_efficiency for r in reports),
        "overall_efficiency": geometric_mean(r.overall_efficiency for r in reports),
    }
    checks = [
        ("area overhead above FP32's",
         values["area_overhead"] > AreaModel().compute_overhead()),
        ("area overhead 1.13x +- 0.04", _near(values["area_overhead"], 1.13, 0.04)),
        ("power overhead 1.05x +- 0.03", _near(values["power_overhead"], 1.05, 0.03)),
        ("chip area overhead below 1.01x", values["chip_area_overhead"] < 1.01),
        ("core efficiency above 1.2x", values["core_efficiency"] > 1.2),
        ("overall efficiency above 1.05x", values["overall_efficiency"] > 1.05),
        ("core above overall",
         values["core_efficiency"] > values["overall_efficiency"]),
    ]
    return values, checks


def gcn(engine):
    """Section 4.4: GCN, a model with virtually no sparsity.

    Its gated linear units leave almost no zeros, so TensorDash gains
    about 1% and, without power gating, costs about 0.5% energy.
    """
    trace = _trace(engine, "gcn")
    result = _final(engine, "gcn")
    runner = _runner(engine)
    values = {
        "speedup": result.speedup(),
        "potential": ExperimentRunner.potential_speedups_from_trace(
            trace.final_epoch()
        )["Total"],
        "overall_efficiency": runner.energy_report(result).overall_efficiency,
        "gated_overall_efficiency": runner.energy_report(
            result, power_gated=True
        ).overall_efficiency,
        "mean_activation_sparsity": trace.final_epoch().mean_sparsity("activations"),
    }
    checks = [
        ("speedup 1x +- 0.05", _near(values["speedup"], 1.0, 0.05)),
        ("not slower than the baseline", values["speedup"] >= 1.0 - 1e-9),
        ("potential below 1.1x", values["potential"] < 1.1),
        ("activation sparsity below 0.1",
         values["mean_activation_sparsity"] < 0.1),
        ("overall efficiency within 0.97x-1.05x",
         0.97 <= values["overall_efficiency"] <= 1.05),
        ("power gating costs nothing",
         values["gated_overall_efficiency"]
         >= values["overall_efficiency"] - 1e-9),
    ]
    return values, checks


# -- Ablations: the design choices --------------------------------------
#: Interconnect variants: name -> (staging depth, template; None = the
#: paper's template for that depth).
VARIANTS = {
    "dense only (1 option)": (1, None),
    "lookahead only (depth 3)": (3, [(0, 0), (1, 0), (2, 0)]),
    "2-deep paper (5 options)": (2, None),
    "3-deep paper (8 options)": (3, None),
    "3-deep wide (12 options)": (
        3,
        [(0, 0), (1, 0), (2, 0), (1, -1), (1, 1), (2, -2), (2, 2), (1, -3),
         (2, -1), (2, 1), (1, -2), (1, 2)],
    ),
}
INTERCONNECT_ROWS = 200
INTERCONNECT_SPARSITY = 0.7
SAMPLES = 3


def interconnect():
    """Interconnect geometry: lookahead depth and lookaside breadth.

    The paper settles on 2 lookahead steps plus 5 lookaside options (8 in
    all); widening beyond that should add little.
    """
    variants = {}
    for name, (depth, template) in VARIANTS.items():
        pattern = ConnectivityPattern(lanes=16, staging_depth=depth, template=template)
        scheduler = BatchScheduler(pattern)
        speedups = []
        for sample in range(SAMPLES):
            rng = np.random.default_rng(sample)
            effectual = rng.random((INTERCONNECT_ROWS, 16)) >= INTERCONNECT_SPARSITY
            cycles = int(scheduler.stream_cycles(effectual))
            speedups.append(INTERCONNECT_ROWS / cycles)
        variants[name] = {
            "options_per_lane": pattern.options_per_lane,
            "speedup": float(np.mean(speedups)),
        }
    speedup = {name: row["speedup"] for name, row in variants.items()}
    paper, wide = speedup["3-deep paper (8 options)"], speedup["3-deep wide (12 options)"]
    checks = [
        ("dense only is 1x", speedup["dense only (1 option)"] == 1.0),
        ("lookahead only above 1x", speedup["lookahead only (depth 3)"] > 1.0),
        ("2-deep within its 2x cap", speedup["2-deep paper (5 options)"] <= 2.0 + 1e-9),
        ("8 options beat 2-deep", paper > speedup["2-deep paper (5 options)"]),
        ("8 options beat lookahead only", paper > speedup["lookahead only (depth 3)"]),
        ("12 options at least 8", wide >= paper - 1e-9),
        ("12 options add under 10%", wide <= paper * 1.10),
    ]
    return {"variants": variants}, checks


MULTITILE_MODELS = ("alexnet", "squeezenet", "densenet121")


def multitile(engine):
    """Inter-tile imbalance: AxW summed over groups vs the slowest of 16 tiles."""
    config = AcceleratorConfig()
    accelerator = Accelerator(config)
    partitioner = TileWorkPartitioner(config)
    models = {}
    for model in MULTITILE_MODELS:
        aggregate_base = aggregate_td = multi_base = multi_td = 0
        imbalances = []
        for layer in _trace(engine, model).final_epoch().layers:
            if layer.activation_mask is None or layer.layer_type != "conv":
                continue
            groups = operation_streams(
                "AxW", layer.activation_mask, None,
                layer.kernel, layer.stride, layer.padding,
                config.tile.rows, config.pe.lanes, max_groups=128,
            ).groups
            aggregate = accelerator.run_operation_batched("AxW", groups)
            aggregate_base += aggregate.baseline_cycles
            aggregate_td += aggregate.tensordash_cycles
            multi = partitioner.run_operation("AxW", groups)
            multi_base += multi.baseline_cycles
            multi_td += multi.tensordash_cycles
            imbalances.append(multi.imbalance)
        models[model] = {
            "aggregate_speedup": aggregate_base / aggregate_td if aggregate_td else 1.0,
            "latency_speedup": multi_base / multi_td if multi_td else 1.0,
            "mean_tile_imbalance": float(np.mean(imbalances)) if imbalances else 1.0,
        }
    checks = []
    for model, row in models.items():
        # Synchronising the tiles can only cost time, and little of it.
        checks.append((f"{model}: 16 tiles at most the summed speedup",
                       row["latency_speedup"] <= row["aggregate_speedup"] + 1e-9))
        checks.append((f"{model}: 16 tiles at least 0.7x the summed speedup",
                       row["latency_speedup"] >= 0.7 * row["aggregate_speedup"]))
        checks.append((f"{model}: tile imbalance at least 1",
                       row["mean_tile_imbalance"] >= 1.0))
    return {"models": models}, checks


PRESCHEDULING_MODELS = ("alexnet", "squeezenet", "densenet121", "gcn")


def prescheduling(engine):
    """Scheduled-form storage (Sections 3.6/3.7) of traced activations.

    Storing each non-zero as a (value, idx) pair compresses a tensor's
    rows and its on-chip traffic in proportion to sparsity, up to the 3x
    staging bound.  Measured on each model's first six traced layers.
    """
    pre_scheduler = PreScheduler()
    plain_counter = TrafficCounter(scheduled_onchip=False)
    scheduled_counter = TrafficCounter(scheduled_onchip=True)
    models = {}
    for model in PRESCHEDULING_MODELS:
        trace = _trace(engine, model).final_epoch()
        ratios, sram_savings = [], []
        for layer in trace.layers[:6]:
            if layer.activation_mask is None:
                continue
            mask = layer.activation_mask
            flat = mask.reshape(-1)
            usable = (flat.size // 16) * 16
            if usable == 0:
                continue
            stream = flat[:usable].reshape(-1, 16).astype(np.float64)
            ratios.append(pre_scheduler.compress(stream).compression_ratio)
            operands = {"A": mask.astype(np.float32)}
            plain = plain_counter.operation_traffic(operands, 0).sram_bytes
            scheduled = scheduled_counter.operation_traffic(operands, 0).sram_bytes
            sram_savings.append(1.0 - scheduled / plain if plain else 0.0)
        models[model] = {
            "activation_sparsity": trace.mean_sparsity("activations"),
            "row_compression": float(np.mean(ratios)) if ratios else 1.0,
            "sram_traffic_saved": float(np.mean(sram_savings)) if sram_savings else 0.0,
        }
    checks = []
    for model, row in models.items():
        checks.append((f"{model}: compression within 1x-3x",
                       1.0 <= row["row_compression"] <= 3.0 + 1e-9))
        checks.append((f"{model}: scheduled storage never inflates traffic",
                       0.0 <= row["sram_traffic_saved"] < 1.0))
    alexnet, dense = models["alexnet"], models["gcn"]
    checks += [
        ("alexnet compresses more than gcn",
         alexnet["row_compression"] > dense["row_compression"]),
        ("gcn compression below 1.1x", dense["row_compression"] < 1.1),
        ("gcn saves no traffic (+- 0.05)", _near(dense["sram_traffic_saved"], 0.0, 0.05)),
        ("alexnet saves over 10% of traffic", alexnet["sram_traffic_saved"] > 0.1),
    ]
    return {"models": models}, checks


QUALITY_LEVELS = (0.3, 0.5, 0.7, 0.9)
QUALITY_ROWS = 200


def _oracle_cycles(effectual: np.ndarray, depth: int = 3) -> int:
    """Cycles for an ideal scheduler limited only by lane count and window depth.

    The oracle sees the same ``depth``-row staging window but can route any
    pending effectual pair to any idle lane (a full crossbar).  Each cycle
    it greedily consumes pairs oldest-row first, up to ``lanes`` of them,
    then advances past every fully drained leading row.
    """
    rows, lanes = effectual.shape
    remaining = effectual.sum(axis=1).astype(np.int64)
    position = 0
    cycles = 0
    while position < rows:
        window_end = min(position + depth, rows)
        capacity = lanes
        for row in range(position, window_end):
            if capacity == 0:
                break
            take = min(int(remaining[row]), capacity)
            remaining[row] -= take
            capacity -= take
        advance = 0
        for row in range(position, window_end):
            if remaining[row] == 0:
                advance += 1
            else:
                break
        position += max(advance, 1)
        cycles += 1
    return cycles


def scheduler_quality():
    """The 8-option scheduler against an unrestricted crossbar oracle.

    The oracle packs every effectual pair in the staging window onto any
    idle lane; the gap is the price of the cheap interconnect.
    """
    scheduler = BatchScheduler()
    sparsity = {}
    for level in QUALITY_LEVELS:
        actual, oracle = [], []
        for sample in range(SAMPLES):
            rng = np.random.default_rng(sample)
            effectual = rng.random((QUALITY_ROWS, 16)) >= level
            actual.append(int(scheduler.stream_cycles(effectual)))
            oracle.append(_oracle_cycles(effectual))
        sparsity[f"{level:.0%}"] = {
            "tensordash": QUALITY_ROWS / float(np.mean(actual)),
            "oracle": QUALITY_ROWS / float(np.mean(oracle)),
        }
    checks = []
    for label, row in sparsity.items():
        checks.append((f"{label}: the oracle bounds the scheduler",
                       row["tensordash"] <= row["oracle"] * 1.02))
        checks.append((f"{label}: the scheduler within 30% of the oracle",
                       row["tensordash"] >= 0.7 * row["oracle"]))
    return {"sparsity": sparsity}, checks


TWO_SIDE_PAIRS = ((0.3, 0.3), (0.5, 0.5), (0.7, 0.3), (0.3, 0.7), (0.7, 0.7))
TWO_SIDE_ROWS = 120


def _pe_streams(a_sparsity, b_sparsity, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0, size=(TWO_SIDE_ROWS, 16))
    b = rng.uniform(0.5, 2.0, size=(TWO_SIDE_ROWS, 16))
    a[rng.random(a.shape) < a_sparsity] = 0.0
    b[rng.random(b.shape) < b_sparsity] = 0.0
    return a, b


def two_side():
    """One-side (B) against two-side sparsity extraction at one PE.

    The paper's tiles extract sparsity from one operand only (Section
    3.3); this measures what the second side would add.
    """
    one_side_pe = TensorDashPE()
    two_side_pe = TensorDashPE(two_side=True)
    baseline = BaselinePE()
    pairs = {}
    for a_sparsity, b_sparsity in TWO_SIDE_PAIRS:
        one, two = [], []
        for sample in range(SAMPLES):
            a, b = _pe_streams(a_sparsity, b_sparsity, seed=sample)
            base_cycles = baseline.process(a, b).cycles
            one.append(base_cycles / one_side_pe.process(a, b)[0].cycles)
            two.append(base_cycles / two_side_pe.process(a, b)[0].cycles)
        pairs[f"A{a_sparsity:.0%} B{b_sparsity:.0%}"] = {
            "one_side": float(np.mean(one)),
            "two_side": float(np.mean(two)),
        }
    checks = []
    for label, row in pairs.items():
        checks.append((f"{label}: two sides never slower than one",
                       row["two_side"] >= row["one_side"] - 1e-9))
        checks.append((f"{label}: one side at least 1x, two at most 3x",
                       row["one_side"] >= 1.0 and row["two_side"] <= 3.0 + 1e-9))
    # Where A is much sparser than B, two-side wins clearly.
    asymmetric = pairs["A70% B30%"]
    checks.append(("A70% B30%: two sides over 1.1x one side",
                   asymmetric["two_side"] > asymmetric["one_side"] * 1.1))
    return {"pairs": pairs}, checks


def main() -> int:
    engine = SimulationEngine(**engine_kwargs())
    rows = {
        "fig01": fig01(engine),
        "fig13": fig13(engine),
        "fig14": fig14(engine),
        "fig15": fig15(engine),
        "fig16": fig16(engine),
        "fig17": fig17(engine),
        "fig18": fig18(engine),
        "fig19": fig19(engine),
        "fig20": fig20(),
        "table3": table3(engine),
        "bfloat16": bfloat16(engine),
        "gcn": gcn(engine),
        "interconnect": interconnect(),
        "multitile": multitile(engine),
        "prescheduling": prescheduling(engine),
        "scheduler_quality": scheduler_quality(),
        "two_side": two_side(),
    }
    payload = {
        "benchmark": "paper",
        "training": {
            "epochs": EPOCHS, "fig14_epochs": FIG14_EPOCHS,
            "batches_per_epoch": BATCHES_PER_EPOCH, "batch_size": BATCH_SIZE,
            "seed": SEED,
        },
    }
    payload.update(
        (name, ledger_entry(name, values, checks))
        for name, (values, checks) in rows.items()
    )
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print(format_table(
        "TensorDash paper ledger",
        ["claim", "measured", "paper", "invariants"],
        [
            [claim, resolve_path(payload[name], path), quoted,
             "hold" if payload[name]["invariants_hold"] else "FAILED"]
            for name, path, claim, quoted in LEDGER
        ],
    ))
    print(f"\nWrote {OUTPUT}")
    failed = [
        f"{name}: {invariant}"
        for name in rows for invariant in payload[name]["failed"]
    ]
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Experiment runner: model-level aggregation used by the benchmark harness.

:class:`ExperimentRunner` ties the pieces together: it takes the operand
traces produced by :class:`repro.training.Trainer`, simulates every traced
layer on the baseline and TensorDash accelerators, and aggregates cycles,
speedups, memory traffic and energy per model and per operation — the
quantities Figs. 13-20 and Table 3 report.

Layer execution goes through a :class:`repro.engine.SimulationEngine`, so
every runner accepts a ``cache_dir`` enabling the content-addressed
on-disk result cache.  With a cache directory set, re-running a sweep
re-simulates only layers whose (config, trace) key has never been seen;
everything else is loaded from disk, and ``runner.engine.stats`` records
the hit/miss split for reports.

Runners can alternatively be handed an existing
:class:`~repro.engine.SimulationEngine` via the ``engine`` argument, in
which case the cache argument is ignored and the runner shares
that engine's cache stack and counters.  This is how
:class:`repro.api.Session` gives every workflow one warm cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import AcceleratorConfig
from repro.energy.accounting import EfficiencyReport, EnergyAccountant
from repro.memory.traffic import MemoryTraffic
from repro.simulation.cycle_sim import LayerResult, traced_layers
from repro.training.tracing import EpochTrace, TrainingTrace


#: The three operations in the order the paper's figures list them.
OPERATIONS = ("AxW", "AxG", "WxG")


@dataclass
class ModelResult:
    """Aggregated simulation results for one model on one epoch trace."""

    model_name: str
    epoch: int
    layer_results: List[LayerResult] = field(default_factory=list)

    def cycles(self, operation: Optional[str] = None) -> Dict[str, int]:
        """Baseline/TensorDash cycle totals, optionally for one operation."""
        baseline = 0
        tensordash = 0
        for layer in self.layer_results:
            for op_name, op in layer.operations.items():
                if operation is not None and op_name != operation:
                    continue
                baseline += op.baseline_cycles
                tensordash += op.tensordash_cycles
        return {"baseline": baseline, "tensordash": tensordash}

    def speedup(self, operation: Optional[str] = None) -> float:
        """TensorDash speedup over the baseline."""
        totals = self.cycles(operation)
        if totals["tensordash"] == 0:
            return 1.0
        return totals["baseline"] / totals["tensordash"]

    def per_operation_speedups(self) -> Dict[str, float]:
        """Speedups for AxW, AxG, WxG and Total (the Fig. 13 series)."""
        result = {op: self.speedup(op) for op in OPERATIONS}
        result["Total"] = self.speedup()
        return result

    def potential_speedups(self) -> Dict[str, float]:
        """Work-reduction upper bounds per operation (the Fig. 1 series)."""
        result: Dict[str, float] = {}
        total_macs = 0
        total_effectual = 0
        for op in OPERATIONS:
            macs = 0
            effectual = 0
            for layer in self.layer_results:
                if op in layer.operations:
                    macs += layer.operations[op].macs_total
                    effectual += layer.operations[op].macs_effectual
            result[op] = macs / effectual if effectual else 1.0
            total_macs += macs
            total_effectual += effectual
        result["Total"] = total_macs / total_effectual if total_effectual else 1.0
        return result

    def total_traffic(self) -> MemoryTraffic:
        """Memory traffic summed across layers and operations."""
        total = MemoryTraffic()
        for layer in self.layer_results:
            total = total + layer.total_traffic()
        return total

    def effective_traffic(self) -> MemoryTraffic:
        """Traffic with the DRAM bytes the bandwidth model actually charged.

        The per-operation ``dram_bytes`` recorded by the memory hierarchy
        (compressed traffic plus any capacity spill) replace the raw DRAM
        counts, so energy accounting and the bandwidth constraint share
        one set of byte counts.  SRAM/scratchpad counts are unchanged.
        With an unbounded hierarchy this can still differ from
        :meth:`total_traffic` only for layers without recorded operations.
        """
        total = self.total_traffic()
        dram = self.effective_dram_bytes()
        if dram == 0:
            return total
        return MemoryTraffic(
            dram_bytes=dram,
            sram_bytes=total.sram_bytes,
            scratchpad_bytes=total.scratchpad_bytes,
        )

    # -- memory-hierarchy aggregates ------------------------------------
    def stall_cycles(self) -> Dict[str, int]:
        """Baseline/TensorDash memory-stall cycle totals."""
        return {
            "baseline": sum(l.baseline_stall_cycles for l in self.layer_results),
            "tensordash": sum(l.stall_cycles for l in self.layer_results),
        }

    def stall_fraction(self) -> float:
        """Share of TensorDash's total cycles spent stalled on memory."""
        totals = self.cycles()
        if not totals["tensordash"]:
            return 0.0
        return self.stall_cycles()["tensordash"] / totals["tensordash"]

    def effective_dram_bytes(self) -> int:
        """DRAM bytes the bandwidth model charged across all layers."""
        return sum(layer.effective_dram_bytes() for layer in self.layer_results)

    def bound_counts(self) -> Dict[str, int]:
        """How many (layer, operation) pairs each resource bound."""
        counts: Dict[str, int] = {}
        for layer in self.layer_results:
            for op in layer.operations.values():
                counts[op.bound] = counts.get(op.bound, 0) + 1
        return counts

    def memory_bound_fraction(self) -> float:
        """Fraction of simulated operations that were memory-bound."""
        counts = self.bound_counts()
        total = sum(counts.values())
        if not total:
            return 0.0
        return sum(n for bound, n in counts.items() if bound != "compute") / total

    def total_macs(self) -> int:
        """Total MACs across layers and operations (work, not cycles)."""
        return sum(
            op.macs_total
            for layer in self.layer_results
            for op in layer.operations.values()
        )


class ExperimentRunner:
    """Runs trace-driven accelerator simulations for whole models."""

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        max_groups: Optional[int] = 256,
        max_batch: Optional[int] = 4,
        cache_dir: Optional[str] = None,
        engine=None,
    ):
        # Imported here so repro.simulation stays importable on its own;
        # the engine package sits above this module in the layering.
        from repro.engine.engine import SimulationEngine

        self.config = config or AcceleratorConfig()
        self.max_groups = max_groups
        self.max_batch = max_batch
        if engine is None:
            # This runner owns its engine (the classic one-shot wiring).
            engine = SimulationEngine(
                self.config,
                cache_dir=cache_dir,
                max_groups=max_groups,
                max_batch=max_batch,
            )
        self.engine = engine
        # A shared engine keeps one simulator per configuration; asking
        # for ours up front also validates the config once, eagerly.
        self.simulator = engine.simulator_for(
            self.config, max_groups=max_groups, max_batch=max_batch
        )
        self.accountant = EnergyAccountant(self.config)

    @property
    def engine_stats(self):
        """Simulation / cache counters for this runner (an ``EngineStats``)."""
        return self.engine.stats

    # ------------------------------------------------------------------
    def run_epoch(self, model_name: str, epoch_trace: EpochTrace) -> ModelResult:
        """Simulate one epoch's traced batch for a model."""
        layer_results = self.engine.simulate_layers(
            epoch_trace.layers, config=self.config,
            max_groups=self.max_groups, max_batch=self.max_batch,
        )
        return ModelResult(
            model_name=model_name,
            epoch=epoch_trace.epoch,
            layer_results=layer_results,
        )

    def run_final_epoch(self, trace: TrainingTrace) -> ModelResult:
        """Simulate the final epoch of a training trace."""
        return self.run_epoch(trace.model_name, trace.final_epoch())

    def run_batch(self, traced) -> List[ModelResult]:
        """Simulate several pre-traced workloads in one engine pass.

        ``traced`` is a sequence of ``(model_name, EpochTrace)`` pairs.
        Every epoch's traced layers are flattened into a single
        ``engine.simulate_layers`` call — so the scheduling kernel fuses
        every workload's work groups and the result cache is consulted
        exactly once per layer — and the results are split back per
        workload in input order.  This is the batch entry point the
        design-space :class:`repro.explore.StudyRunner` drives for points
        that share an accelerator configuration.
        """
        flat = []
        spans = []
        for model_name, epoch_trace in traced:
            work = traced_layers(epoch_trace.layers)
            spans.append(
                (model_name, epoch_trace.epoch, len(flat), len(flat) + len(work))
            )
            flat.extend(work)
        results = self.engine.simulate_layers(
            flat, config=self.config,
            max_groups=self.max_groups, max_batch=self.max_batch,
        )
        return [
            ModelResult(
                model_name=name, epoch=epoch, layer_results=results[start:stop]
            )
            for name, epoch, start, stop in spans
        ]

    def run_over_training(
        self, trace: TrainingTrace, num_points: Optional[int] = None
    ) -> List[ModelResult]:
        """Simulate evenly spaced epochs across a training run (Fig. 14)."""
        epochs = trace.epochs
        if num_points is not None and num_points < len(epochs):
            indices = np.linspace(0, len(epochs) - 1, num_points).astype(int)
            epochs = [epochs[i] for i in indices]
        return [self.run_epoch(trace.model_name, epoch) for epoch in epochs]

    # ------------------------------------------------------------------
    @staticmethod
    def potential_speedups_from_trace(epoch_trace: EpochTrace) -> Dict[str, float]:
        """Fig. 1: work-reduction potential computed from raw operand sparsity.

        Unlike :meth:`ModelResult.potential_speedups` this uses the traced
        tensors' zero fractions directly (no lane/tile padding), weighting
        layers by their MAC counts: ``total MACs / remaining MACs`` with the
        remaining MACs being those whose targeted operand is non-zero.
        """
        result: Dict[str, float] = {}
        grand_total = 0.0
        grand_remaining = 0.0
        for operation in OPERATIONS:
            total = 0.0
            remaining = 0.0
            for layer in epoch_trace.layers:
                macs = float(layer.macs or 0)
                if macs <= 0:
                    continue
                sparsity = layer.operand_sparsity(operation)
                total += macs
                remaining += macs * (1.0 - sparsity)
            result[operation] = total / remaining if remaining else 1.0
            grand_total += total
            grand_remaining += remaining
        result["Total"] = grand_total / grand_remaining if grand_remaining else 1.0
        return result

    def energy_report(self, result: ModelResult, power_gated: bool = False) -> EfficiencyReport:
        """Core and overall energy efficiency for one model result.

        Uses :meth:`ModelResult.effective_traffic`, so the DRAM energy is
        charged for exactly the bytes the bandwidth model enforced
        (compression and capacity spill included) — one byte count shared
        by the performance and energy models.
        """
        cycles = result.cycles()
        traffic = result.effective_traffic()
        return self.accountant.efficiency(
            baseline_cycles=cycles["baseline"],
            tensordash_cycles=cycles["tensordash"],
            baseline_traffic=traffic,
            power_gated=power_gated,
        )


def simulate_model_training(
    model,
    dataset,
    model_name: str,
    config: Optional[AcceleratorConfig] = None,
    epochs: int = 2,
    batches_per_epoch: int = 2,
    batch_size: int = 8,
    learning_rate: float = 0.01,
    max_groups: Optional[int] = 128,
    pruning_hook=None,
    cache_dir: Optional[str] = None,
) -> ModelResult:
    """End-to-end convenience: train briefly, trace, and simulate.

    This is the one-call public API used by the quickstart example: it
    trains ``model`` on ``dataset`` for a few epochs, traces the operands
    of the final epoch and returns the aggregated accelerator results.

    Kept as a stable shim: new code that works with *registered*
    workloads should prefer :class:`repro.api.Session`, whose requests
    are serialisable and whose engine cache stays warm across calls.
    This function remains for ad-hoc models/datasets that are not in the
    registry.
    """
    from repro.nn.optim import MomentumSGD
    from repro.training.trainer import Trainer, TrainingConfig

    trainer = Trainer(
        model=model,
        optimizer=MomentumSGD(model.parameters(), lr=learning_rate),
        config=TrainingConfig(
            epochs=epochs,
            batches_per_epoch=batches_per_epoch,
            batch_size=batch_size,
            learning_rate=learning_rate,
        ),
        pruning_hook=pruning_hook,
    )
    trace = trainer.train(dataset, model_name=model_name)
    runner = ExperimentRunner(
        config=config, max_groups=max_groups, cache_dir=cache_dir
    )
    return runner.run_final_epoch(trace)

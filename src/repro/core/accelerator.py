"""The multi-tile accelerator model.

An accelerator is a grid of tiles (16 by default) fed from shared on-chip
AM/BM/CM memories.  An operation is cut into lockstep work groups: the PE
rows of one group share their A-side staging buffers, so they advance
together.  The operation's TensorDash cycles are the *sum* of its groups'
cycles, and the dense baseline's are the sum of its groups' stream rows.
Both designs are thus charged as if the groups spread evenly over the
tiles; inter-tile imbalance is not modelled here.
:mod:`repro.core.dataflow` assigns groups to tiles round-robin and takes
the slowest tile's latency instead, and the paper ledger's ``multitile``
row (``benchmarks/bench_paper.py``) measures the gap between the two
accounts (alexnet AxW: 1.845x summed, 1.761x over the slowest tile).

A schedule depends only on the operands' zero patterns, so the model
counts cycles on boolean masks of effectual positions, never on values.
:meth:`Accelerator.tile_cycles_batch` schedules many lockstep groups at
once on the bit-plane :class:`repro.core.scheduler.BatchScheduler`
kernel, and :meth:`Accelerator.run_operations_batched` fuses whole
operations into shared ragged batches — the kernel every engine run
goes through.  The readable oracle it is checked against cycle for cycle
sits beside it: :meth:`Accelerator.run_operation_reference`, which walks
each group through :meth:`repro.core.scheduler.HardwareScheduler.walk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import AcceleratorConfig
from repro.core.interconnect import ConnectivityPattern
from repro.core.scheduler import BatchScheduler, HardwareScheduler


@dataclass
class OperationResult:
    """Cycle accounting for one operation (one of the three convolutions).

    ``baseline_cycles`` / ``tensordash_cycles`` are *total* cycles: the
    compute cycles the schedulers produce plus any stall cycles the memory
    hierarchy imposed (zero with the default unbounded hierarchy, so the
    totals equal the legacy compute-only counts bit-exactly).  ``bound``
    records the hierarchy's verdict for the TensorDash design:
    ``"compute"`` when the operation ran at its compute rate, ``"dram"`` /
    ``"sram"`` when that level's bandwidth set the pace.
    """

    name: str
    baseline_cycles: int
    tensordash_cycles: int
    macs_total: int
    macs_effectual: int
    #: Memory-stall cycles included in the totals above.
    baseline_stall_cycles: int = 0
    tensordash_stall_cycles: int = 0
    #: Cycles the memory hierarchy demands for this operation's traffic
    #: (the ``ceil(bytes / bytes-per-cycle)`` floor both designs share).
    memory_cycles: int = 0
    #: Effective DRAM bytes charged (compressed traffic plus capacity spill).
    dram_bytes: int = 0
    #: Compute-bound / memory-bound verdict for the TensorDash design.
    bound: str = "compute"

    @classmethod
    def from_groups(
        cls, name: str, groups: np.ndarray, tensordash_cycles: int
    ) -> "OperationResult":
        """Compute-only result for ``groups`` that took ``tensordash_cycles``.

        ``groups`` is the operation's boolean ``(num_groups, tile_rows,
        stream_rows, lanes)`` array of effectual positions: the dense
        baseline spends one cycle per stream row of each group, and every
        position is a MAC slot.
        """
        num_groups, tile_rows, stream_rows, lanes = groups.shape
        return cls(
            name=name,
            baseline_cycles=num_groups * stream_rows,
            tensordash_cycles=tensordash_cycles,
            macs_total=num_groups * tile_rows * stream_rows * lanes,
            macs_effectual=int(groups.sum()),
        )

    @property
    def baseline_compute_cycles(self) -> int:
        """Baseline cycles excluding memory stalls."""
        return self.baseline_cycles - self.baseline_stall_cycles

    @property
    def tensordash_compute_cycles(self) -> int:
        """TensorDash cycles excluding memory stalls."""
        return self.tensordash_cycles - self.tensordash_stall_cycles

    @property
    def memory_bound(self) -> bool:
        """True when the hierarchy's bandwidth set this operation's pace."""
        return self.bound != "compute"

    @property
    def stall_fraction(self) -> float:
        """Share of TensorDash's total cycles spent stalled on memory."""
        if self.tensordash_cycles == 0:
            return 0.0
        return self.tensordash_stall_cycles / self.tensordash_cycles

    @property
    def speedup(self) -> float:
        """Baseline cycles divided by TensorDash cycles (stalls included)."""
        if self.tensordash_cycles == 0:
            return 1.0
        return self.baseline_cycles / self.tensordash_cycles

    @property
    def compute_speedup(self) -> float:
        """Speedup on compute cycles alone (memory stalls excluded).

        Matches the unbounded-hierarchy figure except when the
        staging-refill clamp binds (``staging_depth > scratchpad_banks``
        under a bandwidth-limited hierarchy), which inflates the compute
        cycles themselves.
        """
        if self.tensordash_compute_cycles == 0:
            return 1.0
        return self.baseline_compute_cycles / self.tensordash_compute_cycles

    @property
    def potential_speedup(self) -> float:
        """Work-reduction upper bound: total MACs over effectual MACs."""
        if self.macs_effectual == 0:
            return float(self.macs_total) if self.macs_total else 1.0
        return self.macs_total / self.macs_effectual


class Accelerator:
    """Cycle-level model of the full TensorDash accelerator.

    Parameters
    ----------
    config:
        Accelerator configuration; ``config.power_gated`` turns the model
        into the dense baseline (TensorDash components disabled).
    """

    def __init__(self, config: Optional[AcceleratorConfig] = None):
        self.config = config or AcceleratorConfig()
        self.pattern = ConnectivityPattern(
            lanes=self.config.pe.lanes,
            staging_depth=self.config.pe.staging_depth,
        )
        self.batch_scheduler = BatchScheduler(self.pattern)
        # With a bandwidth-limited memory hierarchy the staging buffers can
        # refill at most ``scratchpad_banks`` rows per cycle (one row per
        # bank); without one — including capacity-only hierarchies, whose
        # sole effect is extra DRAM bytes — the legacy unlimited-refill
        # behaviour keeps cycle counts reproduced bit-exactly.  Table 2
        # banks the scratchpads as deep as the staging buffers, so the
        # limit only binds for exotic geometries (staging depth > banks).
        if self.config.hierarchy.has_bandwidth_limit:
            self.refill_limit: Optional[int] = self.config.memory.scratchpad_banks
        else:
            self.refill_limit = None

    @property
    def kernel_inputs(self) -> Tuple[Tuple[str, object], ...]:
        """Every value besides the work groups that the kernel's cycle
        counts depend on (the datatype, memory sizes and energy
        parameters are not among them)."""
        return (
            ("lanes", self.pattern.lanes),
            ("staging_depth", self.pattern.staging_depth),
            ("refill_limit", self.refill_limit),
            ("power_gated", self.config.power_gated),
        )

    # ------------------------------------------------------------------
    def tile_cycles_batch(
        self, groups: np.ndarray, rows_per_group: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Cycles per work group for many tile-row groups processed at once.

        Parameters
        ----------
        groups:
            Boolean array of shape ``(num_groups, tile_rows, stream_rows,
            lanes)``.  Each group's rows advance in lockstep (shared A-side
            staging buffers); different groups are independent.
        rows_per_group:
            Optional per-group dense-schedule lengths, each in ``[0,
            stream_rows]``: group ``g`` only covers its first
            ``rows_per_group[g]`` stream rows, and positions beyond them
            are ignored.  ``None`` means every group spans the full
            ``stream_rows``.

        Returns
        -------
        numpy.ndarray
            Per-group cycle counts.  Summing them gives the operation's
            TensorDash cycles; summing the per-group row counts gives the
            baseline's.
        """
        groups = np.asarray(groups, dtype=bool)
        if rows_per_group is None:
            return self._tile_cycles([groups])
        full_rows = self.batch_scheduler.group_rows([groups])
        rows = np.asarray(rows_per_group, dtype=np.int64)
        if rows.shape != full_rows.shape:
            raise ValueError(
                f"rows_per_group must have shape {full_rows.shape}, got {rows.shape}"
            )
        if np.any((rows < 0) | (rows > full_rows)):
            raise ValueError(
                f"rows_per_group entries must lie in [0, {groups.shape[2]}], "
                f"got {rows.tolist()}"
            )
        return self._tile_cycles(
            [group[None, :, :length] for group, length in zip(groups, rows)]
        )

    def _tile_cycles(self, units: List[np.ndarray]) -> np.ndarray:
        """Per-group cycles of ``units`` (see :meth:`BatchScheduler.tile_cycles`)."""
        if self.config.power_gated:
            return self.batch_scheduler.group_rows(units)
        return self.batch_scheduler.tile_cycles(units, advance_limit=self.refill_limit)

    # ------------------------------------------------------------------
    def run_operation_reference(self, name: str, groups: np.ndarray) -> OperationResult:
        """The readable oracle the batched kernel is checked against.

        Walks one lockstep tile-row group at a time, one cycle at a time,
        through :meth:`repro.core.scheduler.HardwareScheduler.walk`, under
        the same per-window staging-refill clamp the kernel applies, so it
        stays bit-identical under finite memory hierarchies too.
        Deliberately unoptimised: only tests and the engine
        microbenchmark call it.
        """
        groups = np.asarray(groups, dtype=bool)
        if groups.ndim != 4:
            raise ValueError(
                f"groups must be 4D (groups, tile_rows, stream_rows, lanes), got {groups.shape}"
            )
        if self.config.power_gated:
            cycles = groups.shape[0] * groups.shape[2]
        else:
            scheduler = HardwareScheduler(self.pattern)
            cycles = sum(
                sum(1 for _ in scheduler.walk(group, self.refill_limit))
                for group in groups
            )
        return OperationResult.from_groups(name, groups, cycles)

    def run_operation_batched(self, name: str, groups: np.ndarray) -> OperationResult:
        """Batched execution: schedule every group's windows at once.

        ``groups`` must be a boolean 4D array of shape ``(num_groups,
        tile_rows, stream_rows, lanes)``.
        """
        return self.run_operations_batched([(name, groups)])[0]

    def run_operations_batched(
        self, units: Sequence[Tuple[str, np.ndarray]]
    ) -> List[OperationResult]:
        """Run many operations through shared ragged scheduling batches.

        ``units`` is a sequence of ``(name, groups)`` pairs as accepted by
        :meth:`run_operation_batched`; the units may come from different
        operations *and different layers* — each work group is an
        independent lockstep unit, so fusing them into one batch changes
        nothing about the schedule while amortising the per-cycle
        dispatch cost over the whole batch (see
        :meth:`BatchScheduler.tile_cycles`, which also bounds the memory
        a batch may take).  Results are returned in input order and are
        bit-identical to calling :meth:`run_operation_batched` per unit.
        """
        units = [(name, np.asarray(groups, dtype=bool)) for name, groups in units]
        cycles = self._tile_cycles([groups for _, groups in units])
        results = []
        offset = 0
        for name, groups in units:
            end = offset + groups.shape[0]
            results.append(
                OperationResult.from_groups(name, groups, int(cycles[offset:end].sum()))
            )
            offset = end
        return results

    def describe(self) -> str:
        """Summary string for reports."""
        return self.config.describe()

"""The multi-tile accelerator model.

An accelerator is a grid of tiles (16 by default) fed from shared on-chip
AM/BM/CM memories.  Work is distributed across tiles at the granularity of
(filter-group, window-group) assignments; the accelerator's latency for an
operation is the maximum latency across its tiles (they operate in
lockstep on a layer), matching how the paper's simulator accounts for
inter-tile imbalance.

For large workloads the per-value functional simulation in
:class:`repro.core.tile.TensorDashTile` is too slow, so the accelerator
offers a cycle-only path built on the vectorised
:class:`repro.core.scheduler.BatchScheduler`; its cycle counts are
identical to the functional model (verified by tests) because the
scheduler decisions only depend on the operand zero patterns.

:meth:`Accelerator.tile_cycles_batch` schedules many lockstep groups at
once and :meth:`Accelerator.run_operations_batched` fuses whole
operations into ragged bit-packed batches — the ``vectorized`` engine
backend's kernel.  The readable oracle it is checked against is
:class:`repro.engine.backend.ReferenceBackend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import AcceleratorConfig
from repro.core.interconnect import ConnectivityPattern
from repro.core.scheduler import BatchScheduler, pack_stream_rows


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
            Optional per-group dense-schedule lengths, enabling *ragged*
            batches: group ``g`` only covers its first
            ``rows_per_group[g]`` stream rows and every position beyond
            them must be False (padding).  ``None`` means every group
            spans the full ``stream_rows``.  Results are bit-identical to
            running each group in its own exactly-sized batch, which is
            what lets the engine fuse operations of different shapes into
            one scheduling pass.

        Returns
        -------
        numpy.ndarray
            Per-group cycle counts.  Summing them gives the operation's
            TensorDash cycles; summing the per-group row counts gives the
            baseline's.
        """
        groups = np.asarray(groups, dtype=bool)
        if groups.ndim != 4:
            raise ValueError(
                f"groups must be 4D (groups, tile_rows, stream_rows, lanes), got {groups.shape}"
            )
        num_groups, tile_rows, stream_rows, lanes = groups.shape
        if rows_per_group is None:
            rows_per_group = np.full(num_groups, stream_rows, dtype=np.int64)
        else:
            rows_per_group = np.asarray(rows_per_group, dtype=np.int64)
            if rows_per_group.shape != (num_groups,):
                raise ValueError(
                    f"rows_per_group must have shape ({num_groups},), "
                    f"got {rows_per_group.shape}"
                )
        if self.config.power_gated:
            return rows_per_group.copy()
        if stream_rows == 0 or num_groups == 0:
            return np.zeros(num_groups, dtype=np.int64)
        depth = self.config.pe.staging_depth

        if self.batch_scheduler.packable:
            flat = groups.reshape(num_groups * tile_rows, stream_rows, lanes)
            packed = np.zeros(
                (flat.shape[0], stream_rows + depth), dtype=np.uint64
            )
            packed[:, :stream_rows] = pack_stream_rows(flat)
            return self.tile_cycles_packed(packed, tile_rows, rows_per_group)

        flat = groups.reshape(num_groups * tile_rows, stream_rows, lanes)
        padded = np.zeros((flat.shape[0], stream_rows + depth, lanes), dtype=bool)
        padded[:, :stream_rows] = flat

        group_position = np.zeros(num_groups, dtype=np.int64)
        cycles = np.zeros(num_groups, dtype=np.int64)
        row_offsets = np.arange(depth)
        stream_group = np.repeat(np.arange(num_groups), tile_rows)

        active_groups = group_position < rows_per_group
        while active_groups.any():
            active_streams = active_groups[stream_group]
            stream_idx = np.nonzero(active_streams)[0]
            positions = group_position[stream_group[stream_idx]]
            gather = positions[:, None] + row_offsets[None, :]
            windows = padded[
                stream_idx[:, None, None],
                gather[:, :, None],
                np.arange(lanes)[None, None, :],
            ]
            claimed, advance, _ = self.batch_scheduler.schedule(
                windows, advance_limit=self.refill_limit
            )
            padded[
                stream_idx[:, None, None],
                gather[:, :, None],
                np.arange(lanes)[None, None, :],
            ] &= ~claimed
            # Reduce the per-stream advance to a per-group minimum.
            group_advance = np.full(num_groups, np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(group_advance, stream_group[stream_idx], advance)
            active_idx = np.nonzero(active_groups)[0]
            step = np.minimum(
                group_advance[active_idx],
                rows_per_group[active_idx] - group_position[active_idx],
            )
            group_position[active_idx] += step
            cycles[active_idx] += 1
            active_groups = group_position < rows_per_group
        return cycles

    def tile_cycles_packed(
        self,
        packed_rows: np.ndarray,
        tile_rows: int,
        rows_per_group: np.ndarray,
    ) -> np.ndarray:
        """Ragged batched tile cycles on bit-packed operand rows.

        This is the engine's hot kernel: the whole batch — typically every
        work group of every operation of a layer, or of many layers — is
        scheduled together, paying the per-cycle dispatch cost once for
        the batch instead of once per operation.

        Parameters
        ----------
        packed_rows:
            ``uint64`` array of shape ``(num_groups * tile_rows,
            max_rows + staging_depth)``; word ``[s, r]`` holds the lane
            bitmask of stream ``s``'s dense-schedule row ``r`` (see
            :func:`~repro.core.scheduler.pack_stream_rows`).  Streams of
            one group are contiguous.  Rows at or beyond the group's
            ``rows_per_group`` entry must be zero.  **Mutated in place**
            (consumed pairs are cleared) — pass a copy to reuse it.
        tile_rows:
            Streams per lockstep group.
        rows_per_group:
            Per-group dense-schedule lengths, shape ``(num_groups,)``.

        Returns
        -------
        numpy.ndarray
            Per-group cycle counts, bit-identical to the boolean path.
        """
        if not self.batch_scheduler.packable:
            raise ValueError("configuration does not fit 64-bit packed windows")
        rows_per_group = np.asarray(rows_per_group, dtype=np.int64)
        num_groups = rows_per_group.shape[0]
        cycles = np.zeros(num_groups, dtype=np.int64)
        if self.config.power_gated:
            return rows_per_group.copy()
        if num_groups == 0:
            return cycles
        lanes = self.config.pe.lanes
        depth = self.config.pe.staging_depth
        width = packed_rows.shape[1]
        if packed_rows.shape[0] != num_groups * tile_rows:
            raise ValueError(
                f"expected {num_groups * tile_rows} packed streams, "
                f"got {packed_rows.shape[0]}"
            )
        flat = np.ascontiguousarray(packed_rows).reshape(-1)
        lane_mask = np.uint64((1 << lanes) - 1) if lanes < 64 else ~np.uint64(0)
        shifts = [np.uint64(lanes * k) for k in range(depth)]
        tile_offsets = np.arange(tile_rows, dtype=np.int64) * width

        position = np.zeros(num_groups, dtype=np.int64)
        active = position < rows_per_group
        active_idx = np.nonzero(active)[0]
        while active_idx.size:
            # Streams of active groups are contiguous runs of tile_rows.
            base = (
                active_idx[:, None] * (tile_rows * width)
                + tile_offsets[None, :]
                + position[active_idx, None]
            ).reshape(-1)
            windows = flat[base]
            for k in range(1, depth):
                windows = windows | (flat[base + k] << shifts[k])
            claimed, advance, _ = self.batch_scheduler.schedule_packed(
                windows, advance_limit=self.refill_limit
            )
            flat[base] &= ~(claimed & lane_mask)
            for k in range(1, depth):
                flat[base + k] &= ~((claimed >> shifts[k]) & lane_mask)
            group_advance = advance.reshape(-1, tile_rows).min(axis=1)
            step = np.minimum(
                group_advance, rows_per_group[active_idx] - position[active_idx]
            )
            position[active_idx] += step
            cycles[active_idx] += 1
            active_idx = active_idx[
                position[active_idx] < rows_per_group[active_idx]
            ]
        return cycles

    # ------------------------------------------------------------------
    def run_operation_batched(self, name: str, groups: np.ndarray) -> OperationResult:
        """Batched execution: schedule every group's windows at once.

        This is the kernel behind the engine's ``vectorized`` backend;
        ``groups`` must be a boolean 4D array of shape ``(num_groups,
        tile_rows, stream_rows, lanes)``.
        """
        groups = np.asarray(groups, dtype=bool)
        if groups.ndim != 4:
            raise ValueError(
                f"groups must be 4D (groups, tile_rows, stream_rows, lanes), got {groups.shape}"
            )
        num_groups, tile_rows, stream_rows, _ = groups.shape
        return OperationResult(
            name=name,
            baseline_cycles=num_groups * stream_rows,
            tensordash_cycles=int(self.tile_cycles_batch(groups).sum()),
            macs_total=num_groups * tile_rows * stream_rows * self.config.pe.lanes,
            macs_effectual=int(groups.sum()),
        )

    #: Upper bound on the ``uint64`` words one merged scheduling bucket may
    #: hold (~64 MiB).  Units are packed greedily in ascending stream-row
    #: order, so each bucket mixes similar lengths and padding stays small.
    BATCH_WORD_BUDGET = 8_000_000

    def run_operations_batched(
        self, units: Sequence[Tuple[str, np.ndarray]]
    ) -> List[OperationResult]:
        """Run many operations through shared ragged scheduling batches.

        ``units`` is a sequence of ``(name, groups)`` pairs as accepted by
        :meth:`run_operation_batched`; the units may come from different
        operations *and different layers* — each work group is an
        independent lockstep unit, so fusing them into one batch changes
        nothing about the schedule while amortising the per-cycle
        dispatch cost over the whole batch.  Results are returned in
        input order and are bit-identical to calling
        :meth:`run_operation_batched` per unit.

        Units are sorted by stream-row count and merged into buckets of
        at most :data:`BATCH_WORD_BUDGET` packed words *after padding*,
        with padding capped at half a bucket — this bounds peak memory
        and keeps the first-touch cost of fresh allocations proportional
        to the useful data.  Configurations whose staging window exceeds
        64 bits fall back to the per-unit boolean path.
        """
        results: List[Optional[OperationResult]] = [None] * len(units)
        if not units:
            return []
        if not self.batch_scheduler.packable or self.config.power_gated:
            for index, (name, groups) in enumerate(units):
                results[index] = self.run_operation_batched(name, groups)
            return results

        depth = self.config.pe.staging_depth
        shapes = []
        for name, groups in units:
            groups = np.asarray(groups, dtype=bool)
            if groups.ndim != 4:
                raise ValueError(
                    f"groups must be 4D (groups, tile_rows, stream_rows, lanes), "
                    f"got {groups.shape}"
                )
            shapes.append(groups.shape)
        tile_rows = {shape[1] for shape in shapes if shape[0]}
        if len(tile_rows) > 1:
            raise ValueError(f"units mix tile_rows values: {sorted(tile_rows)}")

        order = sorted(range(len(units)), key=lambda i: shapes[i][2])
        bucket: List[int] = []
        bucket_streams = 0
        bucket_words = 0
        for index in order:
            num_groups, rows_in_tile, stream_rows, _ = shapes[index]
            if num_groups == 0 or stream_rows == 0:
                results[index] = self.run_operation_batched(*units[index])
                continue
            streams = num_groups * rows_in_tile
            words = streams * (stream_rows + depth)
            # Ascending sort makes the candidate's stream_rows the bucket
            # maximum, so this is the exact post-padding allocation size.
            padded = (bucket_streams + streams) * (stream_rows + depth)
            if bucket and (
                padded > self.BATCH_WORD_BUDGET
                or padded > 2 * (bucket_words + words)
            ):
                self._run_bucket(bucket, units, shapes, results)
                bucket, bucket_streams, bucket_words = [], 0, 0
            bucket.append(index)
            bucket_streams += streams
            bucket_words += words
        if bucket:
            self._run_bucket(bucket, units, shapes, results)
        return results

    def _run_bucket(
        self,
        bucket: List[int],
        units: Sequence[Tuple[str, np.ndarray]],
        shapes: List[tuple],
        results: List[Optional[OperationResult]],
    ) -> None:
        """Schedule one merged bucket and scatter its per-unit results."""
        depth = self.config.pe.staging_depth
        lanes = self.config.pe.lanes
        tile_rows = shapes[bucket[0]][1]
        max_rows = max(shapes[i][2] for i in bucket)
        width = max_rows + depth
        total_groups = sum(shapes[i][0] for i in bucket)
        packed = np.zeros((total_groups * tile_rows, width), dtype=np.uint64)
        rows_per_group = np.empty(total_groups, dtype=np.int64)
        offset = 0
        for index in bucket:
            groups = np.asarray(units[index][1], dtype=bool)
            num_groups, _, stream_rows, _ = shapes[index]
            packed[
                offset * tile_rows : (offset + num_groups) * tile_rows, :stream_rows
            ] = pack_stream_rows(groups.reshape(-1, stream_rows, lanes))
            rows_per_group[offset : offset + num_groups] = stream_rows
            offset += num_groups
        cycles = self.tile_cycles_packed(packed, tile_rows, rows_per_group)
        offset = 0
        for index in bucket:
            name, groups = units[index]
            groups = np.asarray(groups, dtype=bool)
            num_groups, _, stream_rows, _ = shapes[index]
            results[index] = OperationResult(
                name=name,
                baseline_cycles=num_groups * stream_rows,
                tensordash_cycles=int(
                    cycles[offset : offset + num_groups].sum()
                ),
                macs_total=num_groups * tile_rows * stream_rows * lanes,
                macs_effectual=int(groups.sum()),
            )
            offset += num_groups

    def describe(self) -> str:
        """Summary string for reports."""
        return self.config.describe()

"""The TensorDash hardware scheduler (Fig. 10).

Given the zero bit-vectors of the two staging buffers, the scheduler picks,
for each multiplier lane, one of the lane's movement options so that every
*effectual* value pair (both operands non-zero) in the staging window is
consumed exactly once and as many lanes as possible are kept busy.

The hardware implementation is a cascade of per-lane 8-to-3 priority
encoders arranged in six levels; lanes within a level have disjoint option
sets so their selections can never conflict, and each level removes its
selections from the Z vector before passing it to the next level.  The
software model here processes lanes in the same level order, which produces
bit-identical schedules to the combinational circuit.

One readable oracle and one fast kernel are provided:

* :class:`HardwareScheduler` — a direct model of a single scheduling step
  (:meth:`~HardwareScheduler.schedule_step`) plus the one loop that steps
  it through a stream (:meth:`~HardwareScheduler.walk`).  The PE, tile,
  pre-scheduler and the accelerator's reference oracle are all built on
  ``walk``.
* :class:`BatchScheduler` — the bit-packed numpy kernel: one ``uint64``
  word per staging window, stepped for many independent lockstep groups
  at once, which keeps full-model experiments tractable.  Windows wider
  than 64 bits run on ``walk`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.interconnect import ConnectivityPattern


@dataclass
class Schedule:
    """The outcome of one scheduling step.

    Attributes
    ----------
    selections:
        Per lane, the selected ``(step, lane)`` staging-buffer position, or
        ``None`` if the lane is idle this cycle.
    select_signals:
        Per lane, the multiplexer select value (the option's rank in the
        lane's priority list), or ``None`` when idle.  These are the MS
        signals of Fig. 10.
    advance:
        The AS signal: how many staging-buffer rows were fully drained and
        can be refilled from the scratchpads (always at least 1 when the
        window is non-empty).
    busy_lanes:
        Number of lanes that perform an effectual MAC this cycle.
    """

    selections: List[Optional[Tuple[int, int]]]
    select_signals: List[Optional[int]]
    advance: int
    busy_lanes: int

    @property
    def utilization(self) -> float:
        """Fraction of lanes doing useful work this cycle."""
        if not self.selections:
            return 0.0
        return self.busy_lanes / len(self.selections)


def pack_stream_rows(streams: np.ndarray) -> np.ndarray:
    """Pack boolean stream rows into one ``uint64`` lane-bitmask per row.

    ``streams`` has shape ``(num_streams, rows, lanes)`` with
    ``lanes <= 64``; the result has shape ``(num_streams, rows)`` where
    bit ``l`` of word ``[s, r]`` is ``streams[s, r, l]``.  A window
    starting at row ``p`` for a ``depth``-deep staging buffer is then
    ``rows[p] | rows[p+1] << lanes | ...`` — the layout
    :meth:`BatchScheduler.schedule_packed` consumes.
    """
    num_streams, rows, lanes = streams.shape
    if lanes > 64:
        raise ValueError(f"cannot pack {lanes} lanes into a 64-bit word")
    packed_bytes = np.packbits(
        np.ascontiguousarray(streams, dtype=bool), axis=-1, bitorder="little"
    )
    words = np.zeros((num_streams, rows, 8), dtype=np.uint8)
    words[:, :, : packed_bytes.shape[-1]] = packed_bytes
    return words.view("<u8").reshape(num_streams, rows)


class HardwareScheduler:
    """Cycle-level model of the hierarchical scheduler for one PE row.

    Parameters
    ----------
    pattern:
        The sparse interconnect connectivity; defaults to the paper's
        16-lane, 3-deep configuration.
    """

    def __init__(self, pattern: Optional[ConnectivityPattern] = None):
        self.pattern = pattern or ConnectivityPattern()
        self.level_groups = self.pattern.level_groups()
        #: Lanes in the order the hardware levels evaluate them.
        self.lane_order: List[int] = [
            lane for group in self.level_groups for lane in group
        ]

    # -- single step --------------------------------------------------------
    def schedule_step(
        self, effectual: np.ndarray, advance_limit: Optional[int] = None
    ) -> Schedule:
        """Schedule one cycle over a staging window.

        Parameters
        ----------
        effectual:
            Boolean array of shape ``(staging_depth, lanes)``; ``True``
            marks a pending effectual pair (both operands non-zero and not
            yet consumed in a previous cycle).  This is the complement of
            the Z vector described in the paper (Z marks ineffectual
            pairs); the complement is used directly because it is what the
            priority encoders consume.
        advance_limit:
            Maximum rows the staging buffer can refill this cycle (the
            scratchpad banking limit the memory hierarchy imposes);
            ``None`` means unlimited — the legacy behaviour.  The AS
            signal is clamped to it, so drained rows beyond the refill
            bandwidth simply advance on a later cycle.

        Returns
        -------
        Schedule
            The selections, MS signals, AS advance count and lane
            occupancy for this cycle.
        """
        depth, lanes = effectual.shape
        if depth != self.pattern.staging_depth or lanes != self.pattern.lanes:
            raise ValueError(
                f"expected window of shape ({self.pattern.staging_depth}, "
                f"{self.pattern.lanes}), got {effectual.shape}"
            )
        remaining = effectual.copy()
        selections: List[Optional[Tuple[int, int]]] = [None] * lanes
        signals: List[Optional[int]] = [None] * lanes

        for lane in self.lane_order:
            for rank, (step, source_lane) in enumerate(
                self.pattern.options_for_lane(lane)
            ):
                if remaining[step, source_lane]:
                    remaining[step, source_lane] = False
                    selections[lane] = (step, source_lane)
                    signals[lane] = rank
                    break

        advance = self._advance_rows(remaining)
        if advance_limit is not None:
            if advance_limit < 1:
                raise ValueError(f"advance_limit must be >= 1, got {advance_limit}")
            advance = min(advance, advance_limit)
        busy = sum(1 for s in selections if s is not None)
        return Schedule(
            selections=selections,
            select_signals=signals,
            advance=advance,
            busy_lanes=busy,
        )

    @staticmethod
    def _advance_rows(remaining: np.ndarray) -> int:
        """How many leading staging rows are fully drained after this cycle.

        Row +0 always drains (its effectual pairs are first priority for
        their own lanes and no other lane can reach step +0), so the
        advance is at least 1; it grows while subsequent rows are empty.
        """
        depth = remaining.shape[0]
        advance = 0
        for step in range(depth):
            if remaining[step].any():
                break
            advance += 1
        return max(advance, 1)

    # -- stream processing ---------------------------------------------------
    def walk(
        self, effectual: np.ndarray, advance_limit: Optional[int] = None
    ) -> Iterator[Tuple[int, List[Schedule], int]]:
        """Step a lockstep group of PE rows through its dense schedule.

        This is the one loop that drives :meth:`schedule_step`.  The rows
        of a tile share their A-side staging buffers, so each cycle the
        group advances by the smallest AS signal across its rows; a lone
        PE is a group of one row.

        Parameters
        ----------
        effectual:
            Boolean array of shape ``(pe_rows, rows, lanes)``: per PE row,
            which positions of its dense schedule hold effectual pairs.
        advance_limit:
            Per-cycle staging refill limit forwarded to
            :meth:`schedule_step` (``None`` = unlimited).

        Yields
        ------
        (position, schedules, advance):
            One tuple per cycle: the dense row the staging window starts
            at, one :class:`Schedule` per PE row (its selections are
            relative to ``position``), and the rows the group then
            advances, clipped to the end of the stream.  The number of
            yields is the group's cycle count.
        """
        pe_rows, rows, lanes = effectual.shape
        if lanes != self.pattern.lanes:
            raise ValueError(
                f"stream has {lanes} lanes, scheduler expects {self.pattern.lanes}"
            )
        depth = self.pattern.staging_depth
        # Empty rows past the end stand in for staging slots with no data.
        pending = np.zeros((pe_rows, rows + depth, lanes), dtype=bool)
        pending[:, :rows] = effectual
        position = 0
        while position < rows:
            schedules = []
            for row in range(pe_rows):
                window = pending[row, position : position + depth]
                schedule = self.schedule_step(window, advance_limit=advance_limit)
                for selection in schedule.selections:
                    if selection is not None:
                        window[selection] = False
                schedules.append(schedule)
            advance = min(min(s.advance for s in schedules), rows - position)
            yield position, schedules, advance
            position += advance

    def process_stream(
        self,
        effectual_rows: np.ndarray,
        advance_limit: Optional[int] = None,
    ) -> Tuple[int, List[Schedule]]:
        """Process a whole stream of dense-schedule rows through one PE.

        Parameters
        ----------
        effectual_rows:
            Boolean array of shape ``(rows, lanes)``: which positions of the
            dense schedule hold effectual pairs.
        advance_limit:
            Per-cycle staging refill limit forwarded to
            :meth:`schedule_step` (``None`` = unlimited).

        Returns
        -------
        (cycles, schedules):
            Total cycles needed and the per-cycle schedules.
        """
        schedules = [
            schedule
            for _, (schedule,), _ in self.walk(effectual_rows[None], advance_limit)
        ]
        return len(schedules), schedules


class BatchScheduler:
    """The bit-packed kernel: many independent lockstep groups at once.

    The hardware scheduler is combinational and stateless, so scheduling
    many independent staging windows is embarrassingly parallel.  Each
    window is packed into one ``uint64`` word — bit ``step * lanes + lane``
    is staging position ``(step, lane)`` — and :meth:`schedule_packed`
    walks the priority encoders with a handful of bitwise numpy operations
    per lane over the whole batch.  :meth:`tile_cycles` steps ragged
    batches of lockstep groups through it, paying the per-cycle dispatch
    cost once per batch instead of once per group; its cycle counts are
    bit-identical to :meth:`HardwareScheduler.walk` (property-tested).

    Packing needs ``staging_depth * lanes <= 64`` (:attr:`packable`),
    which holds for the paper's 16-lane PE up to a 4-deep staging buffer;
    wider windows run group by group on :meth:`HardwareScheduler.walk`.
    """

    #: Upper bound on the ``uint64`` words one scheduling bucket may hold
    #: (~64 MiB).  Units are packed greedily in ascending stream-row order,
    #: so each bucket mixes similar lengths and padding stays small.
    BATCH_WORD_BUDGET = 8_000_000

    def __init__(self, pattern: Optional[ConnectivityPattern] = None):
        self.pattern = pattern or ConnectivityPattern()
        groups = self.pattern.level_groups()
        if not self.pattern.validate_level_groups(groups):  # pragma: no cover
            raise AssertionError("level groups overlap; scheduler invariant broken")
        self._oracle = HardwareScheduler(self.pattern)
        depth, lanes = self.pattern.staging_depth, self.pattern.lanes
        #: Whether a whole staging window fits one uint64 word.
        self.packable = depth * lanes <= 64
        if self.packable:
            one = np.uint64(1)
            self._packed_opts = [
                [
                    one << np.uint64(step * lanes + src)
                    for step, src in self.pattern.options_for_lane(lane)
                ]
                for lane in range(lanes)
            ]
            self._packed_levels = groups
            self._row_masks = [
                np.uint64(((1 << lanes) - 1) << (lanes * row)) for row in range(depth)
            ]

    def schedule_packed(
        self, windows: np.ndarray, advance_limit: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Schedule a batch of bit-packed windows (one ``uint64`` each).

        Bit ``step * lanes + lane`` of a window word marks a pending
        effectual pair at staging position ``(step, lane)``.  Returns
        ``(claimed, advance, busy)`` where ``claimed`` is a word per
        window holding the consumed bits, ``advance`` the AS count and
        ``busy`` the busy lanes — bit-identical to
        :meth:`HardwareScheduler.schedule_step` on each unpacked window
        (property-tested).

        Only available when :attr:`packable` (``depth * lanes <= 64``).
        """
        if not self.packable:
            raise ValueError(
                f"pattern (depth={self.pattern.staging_depth}, "
                f"lanes={self.pattern.lanes}) does not fit a 64-bit window"
            )
        zero = np.uint64(0)
        remaining = windows.copy()
        claimed = np.zeros_like(windows)
        busy = np.zeros(windows.shape[0], dtype=np.int64)
        for group in self._packed_levels:
            # Lanes within a level reach disjoint positions, so their
            # selections are computed from the same `remaining` snapshot.
            for lane in group:
                masks = self._packed_opts[lane]
                selected = remaining & masks[0]
                for mask in masks[1:]:
                    # Branchless priority walk: keep the first hit.
                    candidate = remaining & mask
                    selected += candidate * (selected == zero)
                claimed |= selected
                busy += selected != zero
            remaining = windows & ~claimed
        # AS: leading fully-drained rows, at least 1.
        advance = np.zeros(windows.shape[0], dtype=np.int64)
        clear = np.ones(windows.shape[0], dtype=bool)
        for row_mask in self._row_masks:
            clear = clear & ((remaining & row_mask) == zero)
            advance += clear
        advance = np.maximum(advance, 1)
        if advance_limit is not None:
            if advance_limit < 1:
                raise ValueError(f"advance_limit must be >= 1, got {advance_limit}")
            advance = np.minimum(advance, advance_limit)
        return claimed, advance, busy

    # -- lockstep groups -----------------------------------------------------
    def group_rows(self, units: Sequence[np.ndarray]) -> np.ndarray:
        """Validate a ragged batch and return each group's stream rows.

        ``units`` are boolean arrays of shape ``(num_groups, tile_rows,
        stream_rows, lanes)``; every unit must match the pattern's lanes,
        and every unit with groups must share ``tile_rows``.  The result
        holds each unit's ``stream_rows`` once per group, in input order —
        also the dense baseline's cycles per group.
        """
        lanes = self.pattern.lanes
        tile_rows = set()
        for groups in units:
            if groups.ndim != 4:
                raise ValueError(
                    "groups must be 4D (groups, tile_rows, stream_rows, lanes), "
                    f"got {groups.shape}"
                )
            if groups.shape[3] != lanes:
                raise ValueError(
                    f"groups have {groups.shape[3]} lanes, scheduler expects {lanes}"
                )
            if groups.shape[0]:
                tile_rows.add(groups.shape[1])
        if len(tile_rows) > 1:
            raise ValueError(f"units mix tile_rows values: {sorted(tile_rows)}")
        return np.repeat(
            [groups.shape[2] for groups in units],
            [groups.shape[0] for groups in units],
        ).astype(np.int64)

    def tile_cycles(
        self, units: Sequence[np.ndarray], advance_limit: Optional[int] = None
    ) -> np.ndarray:
        """Cycles per lockstep group for a ragged batch of work units.

        Parameters
        ----------
        units:
            Boolean arrays of shape ``(num_groups, tile_rows, stream_rows,
            lanes)`` of effectual positions (see :meth:`group_rows`).  The
            rows of a group advance in lockstep; groups are independent,
            so units of different ``stream_rows`` — different operations
            and different layers — are scheduled together.
        advance_limit:
            Per-cycle staging refill limit (``None`` = unlimited).

        Returns
        -------
        numpy.ndarray
            Per-group cycle counts, every unit's groups in input order,
            bit-identical to counting :meth:`HardwareScheduler.walk`'s
            cycles group by group.

        Units are sorted by stream-row count and merged into buckets of at
        most :data:`BATCH_WORD_BUDGET` packed words *after padding*, with
        padding capped at half a bucket — this bounds peak memory and keeps
        the first-touch cost of fresh allocations proportional to the
        useful data.
        """
        rows = self.group_rows(units)
        cycles = np.zeros(rows.shape[0], dtype=np.int64)
        starts = np.cumsum([0] + [groups.shape[0] for groups in units])
        live = [i for i, groups in enumerate(units) if groups.shape[0] and groups.shape[2]]
        if not self.packable:
            for i in live:
                for index, group in enumerate(units[i], start=starts[i]):
                    cycles[index] = sum(1 for _ in self._oracle.walk(group, advance_limit))
            return cycles

        depth = self.pattern.staging_depth
        buckets: List[List[int]] = []
        bucket_streams = bucket_words = 0
        for i in sorted(live, key=lambda i: units[i].shape[2]):
            num_groups, tile_rows, stream_rows, _ = units[i].shape
            streams = num_groups * tile_rows
            words = streams * (stream_rows + depth)
            # Ascending sort makes this unit's stream_rows the bucket
            # maximum, so this is the exact post-padding allocation size.
            padded = (bucket_streams + streams) * (stream_rows + depth)
            if (
                not buckets
                or padded > self.BATCH_WORD_BUDGET
                or padded > 2 * (bucket_words + words)
            ):
                buckets.append([])
                bucket_streams = bucket_words = 0
            buckets[-1].append(i)
            bucket_streams += streams
            bucket_words += words
        for bucket in buckets:
            index = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in bucket])
            cycles[index] = self._packed_cycles(
                [units[i] for i in bucket], rows[index], advance_limit
            )
        return cycles

    def _packed_cycles(
        self,
        units: Sequence[np.ndarray],
        rows: np.ndarray,
        advance_limit: Optional[int],
    ) -> np.ndarray:
        """The ragged lockstep loop over one bucket of non-empty units.

        ``rows`` holds each group's stream rows, as :meth:`group_rows`
        returns them for ``units``.
        """
        depth, lanes = self.pattern.staging_depth, self.pattern.lanes
        tile_rows = units[0].shape[1]
        width = int(rows.max()) + depth
        # Word [s, r] is the lane bitmask of stream s's dense row r; the
        # streams of a group are contiguous and rows past its end are zero.
        packed = np.zeros((rows.shape[0] * tile_rows, width), dtype=np.uint64)
        offset = 0
        for groups in units:
            num_groups, _, stream_rows, _ = groups.shape
            streams = num_groups * tile_rows
            packed[offset : offset + streams, :stream_rows] = pack_stream_rows(
                groups.reshape(streams, stream_rows, lanes)
            )
            offset += streams

        flat = packed.reshape(-1)
        lane_mask = np.uint64((1 << lanes) - 1)
        shifts = [np.uint64(lanes * k) for k in range(depth)]
        tile_offsets = np.arange(tile_rows, dtype=np.int64) * width
        cycles = np.zeros(rows.shape[0], dtype=np.int64)
        position = np.zeros(rows.shape[0], dtype=np.int64)
        active_idx = np.arange(rows.shape[0])
        while active_idx.size:
            base = (
                active_idx[:, None] * (tile_rows * width)
                + tile_offsets[None, :]
                + position[active_idx, None]
            ).reshape(-1)
            windows = flat[base]
            for k in range(1, depth):
                windows = windows | (flat[base + k] << shifts[k])
            claimed, advance, _ = self.schedule_packed(windows, advance_limit)
            flat[base] &= ~(claimed & lane_mask)
            for k in range(1, depth):
                flat[base + k] &= ~((claimed >> shifts[k]) & lane_mask)
            group_advance = advance.reshape(-1, tile_rows).min(axis=1)
            position[active_idx] += np.minimum(
                group_advance, rows[active_idx] - position[active_idx]
            )
            cycles[active_idx] += 1
            active_idx = active_idx[position[active_idx] < rows[active_idx]]
        return cycles

    def stream_cycles(
        self, effectual_rows: np.ndarray, advance_limit: Optional[int] = None
    ) -> int:
        """Cycles for a single ``(rows, lanes)`` stream (convenience)."""
        return int(
            self.stream_cycles_batch(effectual_rows[None], advance_limit=advance_limit)[0]
        )

    def stream_cycles_batch(
        self, effectual_rows: np.ndarray, advance_limit: Optional[int] = None
    ) -> np.ndarray:
        """Cycles for a batch of equally-long streams processed independently.

        ``effectual_rows`` is a boolean array of shape ``(batch, rows,
        lanes)``; each stream is a one-row group of :meth:`tile_cycles`.
        """
        streams = np.asarray(effectual_rows, dtype=bool)
        return self.tile_cycles([streams[:, None]], advance_limit=advance_limit)

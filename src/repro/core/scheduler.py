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
  it through a stream (:meth:`~HardwareScheduler.walk`).  The PE,
  pre-scheduler and the accelerator's reference oracle are all built on
  ``walk``.
* :class:`BatchScheduler` — the bit-plane kernel: the staging windows of
  many independent lockstep groups held bit-sliced, one Python int per
  staging slot, so each priority encoder runs as a few whole-batch
  integer operations.  It runs every geometry and keeps full-model
  experiments tractable.
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


def _pack_lanes(rows: np.ndarray) -> np.ndarray:
    """Pack the last axis of a boolean array into bytes, LSB first.

    ``np.packbits`` is slow along a short axis.  When the lanes fill whole
    bytes, one multiply moves 0/1 byte ``k`` of eight to bit ``56 + k``.
    """
    if rows.shape[-1] % 8:
        return np.packbits(rows, axis=-1, bitorder="little")
    eights = np.ascontiguousarray(rows, dtype=bool).view("<u8") * np.uint64(0x0102040810204080)
    return np.right_shift(eights, np.uint64(56), out=eights).astype(np.uint8)


def _ints(rows: np.ndarray) -> List[int]:
    """One little-endian int per row of a ``(..., bytes)`` uint8 array."""
    size, data = rows.shape[-1], rows.tobytes()
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


def _bits(values: Sequence[int], count: int) -> np.ndarray:
    """The low ``count`` bits of each int, as a ``(len(values), count)`` array."""
    size = -(-count // 8)
    data = np.frombuffer(b"".join(v.to_bytes(size, "little") for v in values), np.uint8)
    return np.unpackbits(data.reshape(len(values), size), -1, count, bitorder="little")


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
    """The bit-plane kernel: many independent lockstep groups at once.

    The hardware scheduler is combinational and stateless, so it can step
    a whole batch of staging windows at once, held bit-sliced: one Python
    int per staging slot ``(step, lane)``, whose bit ``j`` is window
    ``j``'s slot.  :meth:`schedule_planes` runs each lane's priority
    encoder as three whole-batch integer operations per option, and
    :meth:`tile_cycles` steps ragged batches of lockstep groups through
    it.  No window has to fit a machine word, so every geometry runs on
    this one kernel, bit-identical to :meth:`HardwareScheduler.walk`.
    """

    #: Upper bound on the packed stream bytes of one scheduling bucket
    #: (~16 MB); see :meth:`tile_cycles` for how units fill buckets.
    BATCH_BYTE_BUDGET = 16_000_000

    def __init__(self, pattern: Optional[ConnectivityPattern] = None):
        self.pattern = pattern or ConnectivityPattern()
        groups = self.pattern.level_groups()
        if not self.pattern.validate_level_groups(groups):  # pragma: no cover
            raise AssertionError("level groups overlap; scheduler invariant broken")
        lanes = self.pattern.lanes
        #: Per lane in level order, its options' planes in priority order.
        self._plane_options = [
            [step * lanes + src for step, src in self.pattern.options_for_lane(lane)]
            for group in groups
            for lane in group
        ]

    def schedule_planes(
        self, planes: List[int], windows: int, advance_limit: Optional[int] = None
    ) -> List[int]:
        """Schedule one cycle of ``windows`` staging windows held as bit planes.

        ``planes[step * lanes + lane]`` has bit ``j`` set when window ``j``
        holds a pending effectual pair at ``(step, lane)``; the selected
        pairs are cleared in place.  Returns one mask per row past row +0
        that the AS signal may reach: mask ``k`` has bit ``j`` set when
        window ``j`` still holds a pair in rows ``1 .. k + 1``, so it
        advances by 1 plus the masks with bit ``j`` clear.  Window by
        window this is :meth:`HardwareScheduler.schedule_step`.
        """
        everyone = (1 << windows) - 1
        for first, *rest in self._plane_options:
            # A lane's first option sees every window unserved.
            hit = planes[first]
            planes[first] = 0
            unserved = everyone ^ hit
            for option in rest:
                hit = planes[option] & unserved
                planes[option] ^= hit
                unserved ^= hit
        depth, lanes = self.pattern.staging_depth, self.pattern.lanes
        reach = depth if advance_limit is None else min(depth, advance_limit)
        blocked, pending = [], 0
        for step in range(1, reach):
            for plane in planes[step * lanes : (step + 1) * lanes]:
                pending |= plane
            blocked.append(pending)
        return blocked

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
        most :data:`BATCH_BYTE_BUDGET` packed stream bytes *after padding*,
        with padding capped at half a bucket: this bounds peak memory and
        keeps the first-touch cost of allocations proportional to the data.
        """
        if advance_limit is not None and advance_limit < 1:
            raise ValueError(f"advance_limit must be >= 1, got {advance_limit}")
        rows = self.group_rows(units)
        cycles = np.zeros(rows.shape[0], dtype=np.int64)
        starts = np.cumsum([0] + [groups.shape[0] for groups in units])
        live = [i for i, groups in enumerate(units) if groups.shape[0] and groups.shape[2]]
        depth = self.pattern.staging_depth
        row_bytes = -(-self.pattern.lanes // 8)
        buckets: List[List[int]] = []
        bucket_streams = bucket_bytes = 0
        for i in sorted(live, key=lambda i: units[i].shape[2]):
            num_groups, tile_rows, stream_rows, _ = units[i].shape
            streams = num_groups * tile_rows
            size = streams * (stream_rows + depth) * row_bytes
            # Ascending sort makes this unit's stream_rows the bucket
            # maximum, so this is the exact post-padding allocation size.
            padded = (bucket_streams + streams) * (stream_rows + depth) * row_bytes
            if not buckets or padded > min(self.BATCH_BYTE_BUDGET, 2 * (bucket_bytes + size)):
                buckets.append([])
                bucket_streams = bucket_bytes = 0
            buckets[-1].append(i)
            bucket_streams += streams
            bucket_bytes += size
        for bucket in buckets:
            index = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in bucket])
            cycles[index] = self._plane_cycles(
                [units[i] for i in bucket], rows[index], advance_limit
            )
        return cycles

    def _plane_cycles(
        self, units: Sequence[np.ndarray], rows: np.ndarray, advance_limit: Optional[int]
    ) -> np.ndarray:
        """The ragged lockstep loop over one bucket of non-empty units.

        ``rows`` holds each group's stream rows, as :meth:`group_rows`
        returns them for ``units``.  Window ``g * tile_rows + t`` of the
        planes is tile row ``t`` of group ``g``.
        """
        depth, lanes = self.pattern.staging_depth, self.pattern.lanes
        tile_rows = units[0].shape[1]
        width = int(rows.max()) + depth
        # Row [s * width + r] holds stream s's dense row r, lanes packed
        # LSB first.  Rows past a stream's end are zero, as is the last row,
        # which a window reads (as row -1) where no row enters it.
        row_bytes = -(-lanes // 8)
        packed = np.zeros((rows.shape[0] * tile_rows * width + 1, row_bytes), np.uint8)
        streams = packed[:-1].reshape(-1, width, row_bytes)
        offset = 0
        for groups in units:
            unit = _pack_lanes(groups).reshape(-1, groups.shape[2], row_bytes)
            streams[offset : offset + len(unit), : groups.shape[2]] = unit
            offset += len(unit)
        columns = [packed[:, byte] for byte in range(row_bytes)]
        bit = (1 << np.arange(8, dtype=np.uint8))[:, None]

        def transpose(index: np.ndarray) -> List[int]:
            """The planes of packed rows ``index[step, group, tile_row]``."""
            index = index.reshape(index.shape[0], -1)
            planes = [
                np.packbits((column[index][:, None] & bit) != 0, -1, bitorder="little")
                for column in columns
            ]
            return _ints(np.concatenate(planes, axis=1)[:, :lanes])

        reach = depth if advance_limit is None else min(depth, advance_limit)
        # Per step, the rows that may stay there: an advance of a rows moves
        # plane i + a * lanes to plane i.
        stays = [
            [(a * lanes, a - 1) for a in range(1, min(depth - step, reach + 1))]
            for step in range(depth)
        ]
        offsets = np.arange(depth)[:, None, None] + np.arange(tile_rows) * width
        tile_mask = (1 << tile_rows) - 1
        # Shifts that OR tile_rows neighbouring bits into the first of them.
        spans = [1 << k for k in range((tile_rows - 1).bit_length())]
        folds = [min(span, tile_rows - span) for span in spans]
        group = np.arange(rows.shape[0])  # each plane group's index in `rows`
        start = group * (tile_rows * width)  # its first stream's row 0
        position, cycles, counted = (np.zeros_like(rows) for _ in range(3))
        ends, alive = rows, np.ones(rows.shape, dtype=bool)
        planes = transpose(start[:, None] + offsets)
        while group.size:
            windows = group.size * tile_rows
            heads = ((1 << windows) - 1) // tile_mask  # bit g * tile_rows
            # Group g advances past row k + 1 when no tile row of it holds
            # a pair in rows 1 .. k + 1: fold each mask over the tile rows.
            free = []
            for mask in self.schedule_planes(planes, windows, advance_limit):
                for fold in folds:
                    mask |= mask >> fold
                free.append(heads ^ (mask & heads))
            advance = 1 + _bits(free, windows)[:, ::tile_rows].sum(axis=0, dtype=np.int64)
            counted += alive
            position = np.minimum(position + advance, ends)
            alive = position < ends
            # exact[a - 1]: the windows whose group advances by a rows.
            exact = [heads * tile_mask] + [mask * tile_mask for mask in free] + [0]
            exact = [exact[a] ^ exact[a + 1] for a in range(reach)]
            # Only the rows that enter are read; the rest shift by the
            # group's advance inside the planes.
            entering = (np.arange(depth)[:, None] + advance >= depth)[:, :, None]
            shifted = transpose(np.where(entering, (start + position)[:, None] + offsets, -1))
            for step, sources in enumerate(stays):
                for lane in range(step * lanes, (step + 1) * lanes):
                    plane = shifted[lane]
                    for source, a in sources:
                        plane |= planes[source + lane] & exact[a]
                    shifted[lane] = plane
            planes = shifted
            if 2 * np.count_nonzero(alive) <= group.size:
                # Finished groups leave the planes once they are half of them.
                cycles[group[~alive]] = counted[~alive]
                keep = np.repeat(alive, tile_rows)
                group, start, position, ends, counted, alive = (
                    array[alive] for array in (group, start, position, ends, counted, alive)
                )
                if group.size:
                    planes = _ints(np.packbits(
                        _bits(planes, windows)[:, keep], axis=-1, bitorder="little"
                    ))
        return cycles

    def stream_cycles(
        self, effectual_rows: np.ndarray, advance_limit: Optional[int] = None
    ) -> int:
        """Cycles for a single ``(rows, lanes)`` stream (convenience)."""
        return int(self.stream_cycles_batch(effectual_rows[None], advance_limit)[0])

    def stream_cycles_batch(
        self, effectual_rows: np.ndarray, advance_limit: Optional[int] = None
    ) -> np.ndarray:
        """Cycles for a batch of equally-long streams processed independently.

        ``effectual_rows`` is a boolean array of shape ``(batch, rows,
        lanes)``; each stream is a one-row group of :meth:`tile_cycles`.
        """
        streams = np.asarray(effectual_rows, dtype=bool)[:, None]
        return self.tile_cycles([streams], advance_limit=advance_limit)

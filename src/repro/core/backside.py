"""Pre-scheduling, scheduled-form storage and the back-side scheduler.

Sections 3.6 and 3.7 of the paper describe storing tensors in *scheduled*
form: each stored value is a pair ``(v, idx)`` where ``idx`` is the
movement (MS select) the front-end scheduler would have produced for that
value with one-side scheduling.  Storing only the non-zero values this way
compresses the tensor, reduces on-chip accesses and amplifies effective
memory capacity; a mirror multiplexer stage (Fig. 12) expands the tensor
back to dense form before it enters a PE's scratchpads.

The :class:`BacksideScheduler` performs the same scheduling at the *output*
of the PEs (Section 3.7), optionally iteratively (one level per cycle) to
reduce hardware cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.interconnect import ConnectivityPattern
from repro.core.scheduler import HardwareScheduler


@dataclass
class ScheduledRow:
    """One packed row of a scheduled tensor.

    ``values[lane]`` is the value assigned to ``lane`` this step and
    ``indices[lane]`` is the movement rank (the ``idx`` field / MS signal)
    that produced it; ``None`` marks an idle lane.  ``advance`` is the AS
    count the scheduler produced for this step; the decompressor needs it
    to place subsequent rows at the right dense offsets (in hardware it is
    carried alongside the row, two bits per packed row).
    """

    values: np.ndarray
    indices: List[Optional[int]]
    advance: int = 1


@dataclass
class ScheduledTensor:
    """A tensor stored in scheduled (compressed) form.

    Attributes
    ----------
    rows:
        The packed schedule rows.
    dense_rows:
        Number of rows of the original dense schedule (needed to restore
        the original shape).
    lanes:
        Lane width of the schedule.
    """

    rows: List[ScheduledRow]
    dense_rows: int
    lanes: int

    @property
    def scheduled_row_count(self) -> int:
        """Rows occupied in scheduled form."""
        return len(self.rows)

    @property
    def compression_ratio(self) -> float:
        """Dense rows divided by scheduled rows (>= 1 when sparsity exists)."""
        if not self.rows:
            return float(self.dense_rows) if self.dense_rows else 1.0
        return self.dense_rows / len(self.rows)

    def footprint_values(self) -> int:
        """Number of value slots occupied in memory in scheduled form."""
        return len(self.rows) * self.lanes


class PreScheduler:
    """Compresses a dense operand stream into scheduled form and back.

    The compressor runs the one-side hardware scheduler over the stream's
    zero pattern; the decompressor is the mirror multiplexer stage of
    Fig. 12.  ``decompress(compress(x))`` always reproduces ``x`` exactly
    up to its zero values (zeros are not stored), which is the property the
    round-trip tests check.
    """

    def __init__(self, pattern: Optional[ConnectivityPattern] = None):
        self.pattern = pattern or ConnectivityPattern()
        self.scheduler = HardwareScheduler(self.pattern)

    def compress(self, stream: np.ndarray) -> ScheduledTensor:
        """Pack a dense ``(rows, lanes)`` stream into scheduled form."""
        stream = np.asarray(stream, dtype=np.float64)
        if stream.ndim != 2 or stream.shape[1] != self.pattern.lanes:
            raise ValueError(
                f"stream must be (rows, {self.pattern.lanes}), got {stream.shape}"
            )
        rows, lanes = stream.shape
        packed: List[ScheduledRow] = []
        for position, (schedule,), advance in self.scheduler.walk((stream != 0)[None]):
            values = np.zeros(lanes, dtype=np.float64)
            for lane, selection in enumerate(schedule.selections):
                if selection is not None:
                    step, source_lane = selection
                    values[lane] = stream[position + step, source_lane]
            packed.append(
                ScheduledRow(
                    values=values, indices=schedule.select_signals, advance=advance
                )
            )
        return ScheduledTensor(rows=packed, dense_rows=rows, lanes=lanes)

    def decompress(self, scheduled: ScheduledTensor) -> np.ndarray:
        """Expand a scheduled tensor back to its dense ``(rows, lanes)`` form.

        This is the mirror multiplexer stage of Fig. 12: each stored value
        is routed back to the dense position its ``idx`` field names,
        relative to the dense offset tracked via the stored AS counts.
        """
        dense = np.zeros((scheduled.dense_rows, scheduled.lanes), dtype=np.float64)
        position = 0
        for packed_row in scheduled.rows:
            for lane, idx in enumerate(packed_row.indices):
                if idx is None:
                    continue
                step, source_lane = self.pattern.options_for_lane(lane)[idx]
                dense[position + step, source_lane] = packed_row.values[lane]
            position += packed_row.advance
            if position >= scheduled.dense_rows:
                break
        return dense

    def roundtrip(self, stream: np.ndarray) -> np.ndarray:
        """Compress then decompress (convenience for tests)."""
        return self.decompress(self.compress(stream))


class BacksideScheduler:
    """Scheduler placed at the PE outputs (Section 3.7).

    Output values are produced over several cycles, so the back-side
    scheduler can be iterative: it reuses a single level of the
    hierarchical scheduler over ``levels`` cycles to schedule one block of
    output values, trading latency for area.  The schedule produced is
    identical to the front-end scheduler's; only the number of cycles to
    produce it differs.
    """

    def __init__(self, pattern: Optional[ConnectivityPattern] = None, iterative: bool = True):
        self.pattern = pattern or ConnectivityPattern()
        self.pre_scheduler = PreScheduler(self.pattern)
        self.iterative = iterative

    def schedule_output_block(self, block: np.ndarray) -> Tuple[ScheduledTensor, int]:
        """Schedule a block of produced outputs into stored (scheduled) form.

        Returns the scheduled tensor and the number of scheduler cycles
        spent (``levels`` per packed row when iterative, 1 otherwise).
        """
        scheduled = self.pre_scheduler.compress(block)
        levels = len(self.pattern.level_groups())
        cycles_per_row = levels if self.iterative else 1
        return scheduled, scheduled.scheduled_row_count * cycles_per_row

    def storage_savings(self, block: np.ndarray) -> float:
        """Fraction of value slots saved by storing the block in scheduled form."""
        scheduled = self.pre_scheduler.compress(block)
        dense_slots = block.shape[0] * block.shape[1]
        if dense_slots == 0:
            return 0.0
        return 1.0 - scheduled.footprint_values() / dense_slots

"""Memory-traffic accounting for one simulated operation or layer.

The energy figures of the paper (Figs. 15 and 16) break energy into core
logic, on-chip SRAM and off-chip DRAM.  This module counts the bytes each
design moves at each level; :mod:`repro.energy.accounting` converts the
counts to energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.memory.compression import CompressingDMA

#: How many times each fetched on-chip value is reused by the PEs on
#: average (spatial/temporal reuse inside a tile); scales scratchpad
#: traffic relative to SRAM traffic.
REUSE_FACTOR = 4.0


@dataclass
class MemoryTraffic:
    """Byte counts for one operation, per memory level."""

    dram_bytes: int = 0
    sram_bytes: int = 0
    scratchpad_bytes: int = 0

    def __add__(self, other: "MemoryTraffic") -> "MemoryTraffic":
        return MemoryTraffic(
            dram_bytes=self.dram_bytes + other.dram_bytes,
            sram_bytes=self.sram_bytes + other.sram_bytes,
            scratchpad_bytes=self.scratchpad_bytes + other.scratchpad_bytes,
        )

    def scaled(self, factor: float) -> "MemoryTraffic":
        """Scale all counts (used when extrapolating from sampled streams).

        Counts are rounded to the nearest byte rather than truncated, so
        extrapolated traffic does not systematically undercount.
        """
        return MemoryTraffic(
            dram_bytes=int(round(self.dram_bytes * factor)),
            sram_bytes=int(round(self.sram_bytes * factor)),
            scratchpad_bytes=int(round(self.scratchpad_bytes * factor)),
        )


class TrafficCounter:
    """Estimates the memory traffic of one operation from its operand tensors.

    Parameters
    ----------
    value_bytes:
        Datatype width in bytes (4 for FP32, 2 for bfloat16).
    compress_offchip:
        Apply zero compression to off-chip transfers (both designs do, per
        the paper's methodology).
    scheduled_onchip:
        Store tensors in scheduled (compressed) form on-chip, reducing SRAM
        traffic proportionally to sparsity (the TensorDash pre-scheduling
        option of Section 3.6).
    """

    def __init__(
        self,
        value_bytes: int = 4,
        compress_offchip: bool = True,
        scheduled_onchip: bool = False,
    ):
        self.value_bytes = value_bytes
        self.compress_offchip = compress_offchip
        self.scheduled_onchip = scheduled_onchip
        self.dma = CompressingDMA(value_bytes=value_bytes)

    def _offchip_bytes(self, tensor: np.ndarray) -> int:
        if self.compress_offchip:
            return self.dma.compressed_size(tensor).compressed_bytes
        return int(tensor.size) * self.value_bytes

    def _onchip_bytes(self, tensor: np.ndarray) -> int:
        dense = int(tensor.size) * self.value_bytes
        if not self.scheduled_onchip:
            return dense
        nonzero = int(np.count_nonzero(tensor))
        # Scheduled form stores non-zero values plus a small per-value index
        # (the idx / MS field).  For dense tensors that would inflate the
        # footprint, so the hardware falls back to the dense layout
        # (Section 3.6 reserves worst-case space anyway); model that by
        # capping at the dense size.
        scheduled = nonzero * self.value_bytes + nonzero
        return min(scheduled, dense)

    def operation_traffic(
        self, operands: Dict[str, np.ndarray], outputs_size: int
    ) -> MemoryTraffic:
        """Traffic for one convolution given its input operands and output size.

        ``operands`` maps operand names to tensors (each read once from
        DRAM and once from SRAM per use); ``outputs_size`` is the number of
        produced values (written back through the hierarchy).
        """
        dram = 0
        sram = 0
        for tensor in operands.values():
            dram += self._offchip_bytes(tensor)
            sram += self._onchip_bytes(tensor)
        output_bytes = outputs_size * self.value_bytes
        dram += output_bytes
        sram += output_bytes
        scratchpad = int(sram * REUSE_FACTOR)
        return MemoryTraffic(dram_bytes=dram, sram_bytes=sram, scratchpad_bytes=scratchpad)

"""Zero-value compression for off-chip transfers.

Both the baseline and TensorDash compress zero values off-chip using the
CompressingDMA approach of Rhu et al. (zero run-length encoding over the
transfer stream).  TensorDash can additionally keep tensors in *scheduled*
form on-chip (see :mod:`repro.core.backside`); this module provides the
generic value-level compression shared by both designs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Metadata bytes per stored record (the zero-run length preceding a value).
RUN_BYTES = 1


@dataclass
class CompressionResult:
    """Size accounting for one compressed transfer."""

    dense_bytes: int
    compressed_bytes: int

    @property
    def ratio(self) -> float:
        """Dense size over compressed size (>= 1 when zeros exist)."""
        if self.compressed_bytes == 0:
            return 1.0 if self.dense_bytes == 0 else float(self.dense_bytes)
        return self.dense_bytes / self.compressed_bytes


class CompressingDMA:
    """Zero-compressing DMA engine model (Rhu et al., HPCA 2018).

    ``value_bytes`` is the datatype width; each stored record adds
    :data:`RUN_BYTES` of metadata.  The compressed size is what the DRAM
    model is charged for.
    """

    def __init__(self, value_bytes: int = 4):
        if value_bytes < 1:
            raise ValueError("value_bytes must be positive")
        self.value_bytes = value_bytes

    def compressed_size(self, tensor: np.ndarray) -> CompressionResult:
        """Size of the tensor after zero compression, without materialising it."""
        tensor = np.asarray(tensor)
        total = int(tensor.size)
        nonzero = int(np.count_nonzero(tensor))
        dense_bytes = total * self.value_bytes
        record_bytes = self.value_bytes + RUN_BYTES
        # One record per non-zero value plus terminator records for long
        # trailing zero runs (second-order; approximated as one record).
        compressed_bytes = nonzero * record_bytes + RUN_BYTES
        # Compression never inflates beyond dense + metadata overhead cap.
        compressed_bytes = min(compressed_bytes, dense_bytes + RUN_BYTES)
        return CompressionResult(dense_bytes=dense_bytes, compressed_bytes=compressed_bytes)

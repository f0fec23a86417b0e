"""Inference-mode pre-scheduling (Sections 3.6.1-3.6.2).

During inference the weights are static, so they can be *pre-scheduled*:
packed in memory in scheduled (value, idx) form offline, bypassing the
dynamic scheduler on the weight side entirely while the idx fields drive
the activation-side multiplexers directly.  Activations, which are produced
at run time, are scheduled by the back-side scheduler as they are written.
Convolutional layers pre-schedule activations in channel groups because all
windows consume the same (row, column) channel block together.

This module models the three options the paper describes for a
fully-connected inference layer — weight-side pre-scheduling,
activation-side (back-side) scheduling, and both-side pre-scheduling with
the Fig. 12 decompressor — and reports cycles plus memory footprint for
each, alongside the dynamic (training-style) TensorDash scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.backside import PreScheduler
from repro.core.config import PEConfig
from repro.core.interconnect import ConnectivityPattern
from repro.core.scheduler import BatchScheduler


@dataclass
class InferenceLayerReport:
    """Cycle and footprint accounting for one FC inference layer."""

    baseline_cycles: int
    weight_prescheduled_cycles: int
    dynamic_cycles: int
    dense_weight_values: int
    scheduled_weight_values: int

    @property
    def weight_prescheduled_speedup(self) -> float:
        if self.weight_prescheduled_cycles == 0:
            return 1.0
        return self.baseline_cycles / self.weight_prescheduled_cycles

    @property
    def dynamic_speedup(self) -> float:
        if self.dynamic_cycles == 0:
            return 1.0
        return self.baseline_cycles / self.dynamic_cycles

    @property
    def weight_compression_ratio(self) -> float:
        if self.scheduled_weight_values == 0:
            return 1.0
        return self.dense_weight_values / self.scheduled_weight_values


class FullyConnectedInference:
    """Models an FC layer's inference on TensorDash with pre-scheduled weights.

    Parameters
    ----------
    config:
        PE geometry (lanes and staging depth).
    """

    def __init__(self, config: Optional[PEConfig] = None):
        self.config = config or PEConfig()
        self.pattern = ConnectivityPattern(
            lanes=self.config.lanes, staging_depth=self.config.staging_depth
        )
        self.pre_scheduler = PreScheduler(self.pattern)
        self.batch_scheduler = BatchScheduler(self.pattern)

    def _weight_stream(self, weights: np.ndarray, filter_index: int) -> np.ndarray:
        """The dense-schedule stream of one filter: its weights, 16 per row."""
        lanes = self.config.lanes
        row = weights[filter_index]
        rows = -(-row.size // lanes)
        stream = np.zeros((rows, lanes), dtype=np.float64)
        stream.reshape(-1)[: row.size] = row
        return stream

    def analyze_layer(self, weights: np.ndarray) -> InferenceLayerReport:
        """Analyse one FC layer (``weights`` shaped ``(filters, in_features)``).

        * baseline: one dense row per cycle, per filter;
        * weight pre-scheduled: the scheduled weight rows are streamed
          directly, so cycles equal the scheduled row count (the dynamic
          scheduler is bypassed);
        * dynamic: the training-style scheduler applied at run time, which
          produces the same schedule (the compressor *is* the scheduler),
          so its cycle count matches — the difference is where the
          scheduling work happens, not how many cycles the MACs take.
        """
        filters = weights.shape[0]
        baseline_cycles = 0
        prescheduled_cycles = 0
        dynamic_cycles = 0
        dense_values = 0
        scheduled_values = 0
        effectual = []
        for filter_index in range(filters):
            stream = self._weight_stream(weights, filter_index)
            baseline_cycles += stream.shape[0]
            scheduled = self.pre_scheduler.compress(stream)
            prescheduled_cycles += scheduled.scheduled_row_count
            effectual.append(stream != 0)
            dense_values += stream.size
            scheduled_values += scheduled.footprint_values()
        if effectual:
            # Every filter's stream has the same length, so the kernel
            # schedules them all as one batch.
            dynamic_cycles = int(
                self.batch_scheduler.stream_cycles_batch(np.stack(effectual)).sum()
            )
        return InferenceLayerReport(
            baseline_cycles=baseline_cycles,
            weight_prescheduled_cycles=prescheduled_cycles,
            dynamic_cycles=dynamic_cycles,
            dense_weight_values=dense_values,
            scheduled_weight_values=scheduled_values,
        )


def conv_activation_groups(
    activations: np.ndarray, lanes: int = 16
) -> Dict[str, float]:
    """Channel-group pre-scheduling statistics for a conv layer's activations.

    Activations at the same (x, y) coordinates are always used together
    regardless of the window, so they can be pre-scheduled in groups along
    the channel dimension (Section 3.6.2).  Returns the average row
    compression achieved per (x, y) group and the fraction of on-chip
    accesses saved.
    """
    if activations.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) activations, got {activations.shape}")
    pre_scheduler = PreScheduler(ConnectivityPattern(lanes=lanes))
    n, c, h, w = activations.shape
    ratios = []
    for sample in range(min(n, 2)):
        for y in range(0, h, max(h // 4, 1)):
            for x in range(0, w, max(w // 4, 1)):
                column = activations[sample, :, y, x]
                rows = -(-column.size // lanes)
                stream = np.zeros((rows, lanes), dtype=np.float64)
                stream.reshape(-1)[: column.size] = column
                ratios.append(pre_scheduler.compress(stream).compression_ratio)
    mean_ratio = float(np.mean(ratios)) if ratios else 1.0
    return {
        "mean_group_compression": mean_ratio,
        "access_savings": 1.0 - 1.0 / mean_ratio if mean_ratio > 0 else 0.0,
    }

"""Ablation: inter-tile work imbalance at the 16-tile accelerator level.

The per-model figures account for intra-tile (row) imbalance; at the
accelerator level the 16 tiles also have to wait for the slowest one when a
layer's work groups are split across them.  This ablation measures how much
of the aggregate speedup survives that second synchronisation level on
traced workloads — a design consideration the paper discusses qualitatively
("stalls will occur due to inter-PE synchronisation").
"""

import numpy as np

from benchmarks.common import get_trace, print_header
from repro.analysis.reporting import format_table
from repro.core.accelerator import Accelerator
from repro.core.config import AcceleratorConfig
from repro.core.dataflow import TileWorkPartitioner
from repro.simulation.streams import operation_streams

ABLATION_MODELS = ("alexnet", "squeezenet", "densenet121")


def compute_multitile():
    config = AcceleratorConfig()
    accelerator = Accelerator(config)
    partitioner = TileWorkPartitioner(config)
    rows = []
    for model_name in ABLATION_MODELS:
        trace = get_trace(model_name).final_epoch()
        aggregate_base = aggregate_td = 0
        multi_base = multi_td = 0
        imbalances = []
        for layer in trace.layers:
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
        rows.append(
            (
                model_name,
                aggregate_base / aggregate_td if aggregate_td else 1.0,
                multi_base / multi_td if multi_td else 1.0,
                float(np.mean(imbalances)) if imbalances else 1.0,
            )
        )
    return rows


def test_ablation_multitile_imbalance(benchmark):
    rows = benchmark.pedantic(compute_multitile, rounds=1, iterations=1)

    print_header(
        "Ablation - inter-tile synchronisation at the 16-tile accelerator (A x W)",
        "Second-order effect on top of Fig. 17's intra-tile row imbalance.",
    )
    print(format_table(
        "Aggregate vs latency-accounted speedup",
        ["model", "aggregate speedup", "16-tile latency speedup", "mean tile imbalance"],
        [[name, agg, multi, imb] for name, agg, multi, imb in rows],
    ))

    for name, aggregate, multi, imbalance in rows:
        # Inter-tile synchronisation can only cost performance, and the loss
        # should be small (work is split over many similar groups).
        assert multi <= aggregate + 1e-9
        assert multi >= 0.7 * aggregate
        assert imbalance >= 1.0

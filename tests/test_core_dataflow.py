"""Tests for the multi-tile work partitioner."""

import numpy as np
import pytest

from repro.core.accelerator import Accelerator
from repro.core.config import AcceleratorConfig
from repro.core.dataflow import TileWorkPartitioner


def make_groups(num_groups, sparsity=0.6, stream_rows=20, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((num_groups, 4, stream_rows, 16)) > sparsity


class TestPartitioning:
    def test_round_robin_covers_all_groups_once(self):
        partitioner = TileWorkPartitioner()
        assignments = partitioner.partition(40)
        combined = np.concatenate(assignments)
        assert sorted(combined.tolist()) == list(range(40))

    def test_fewer_groups_than_tiles(self):
        partitioner = TileWorkPartitioner()
        assignments = partitioner.partition(3)
        assert len(assignments) == 3
        assert all(a.size == 1 for a in assignments)

    def test_zero_groups(self):
        partitioner = TileWorkPartitioner()
        assignments = partitioner.partition(0)
        assert len(assignments) == 1
        assert assignments[0].size == 0


class TestMultiTileResult:
    def test_latency_is_slowest_tile(self):
        partitioner = TileWorkPartitioner()
        groups = make_groups(33)   # uneven split over 16 tiles
        result = partitioner.run_operation("AxW", groups)
        assert result.tensordash_cycles == max(result.per_tile_tensordash_cycles)
        assert result.baseline_cycles == max(result.per_tile_baseline_cycles)

    def test_speedup_within_bounds(self):
        partitioner = TileWorkPartitioner()
        result = partitioner.run_operation("AxW", make_groups(32, sparsity=0.7))
        assert 1.0 <= result.speedup <= 3.0 + 1e-9

    def test_dense_groups_have_unit_speedup(self):
        partitioner = TileWorkPartitioner()
        groups = np.ones((16, 4, 10, 16), dtype=bool)
        result = partitioner.run_operation("AxW", groups)
        assert result.speedup == pytest.approx(1.0)
        assert result.imbalance == pytest.approx(1.0)

    def test_imbalance_reported(self):
        partitioner = TileWorkPartitioner()
        # Make half the groups dense and half empty to force imbalance.
        groups = np.zeros((32, 4, 10, 16), dtype=bool)
        groups[::2] = True
        result = partitioner.run_operation("AxW", groups)
        assert result.imbalance >= 1.0

    def test_multi_tile_speedup_not_higher_than_aggregate(self):
        """Inter-tile imbalance can only reduce the aggregate speedup."""
        config = AcceleratorConfig()
        partitioner = TileWorkPartitioner(config)
        accelerator = Accelerator(config)
        groups = make_groups(48, sparsity=0.7, seed=3)
        aggregate = accelerator.run_operation_batched("AxW", groups)
        multi = partitioner.run_operation("AxW", groups)
        assert multi.speedup <= aggregate.speedup + 1e-9

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            TileWorkPartitioner().run_operation("AxW", np.zeros((4, 10, 16), dtype=bool))

"""Tests for the multi-tile accelerator model and its batched kernel.

The packed kernel must stay bit-identical to the readable oracle: packed
scheduling vs ``HardwareScheduler.schedule_step``, ragged batches vs
exactly-sized ones, bucket splitting, and wide windows (lanes=32), which
run on ``HardwareScheduler.walk``.
"""

import numpy as np
import pytest

from repro.core.accelerator import Accelerator
from repro.core.config import AcceleratorConfig, PEConfig, TileConfig
from repro.core.interconnect import ConnectivityPattern
from repro.core.scheduler import BatchScheduler, HardwareScheduler, pack_stream_rows
from repro.core.tile import TensorDashTile
from repro.engine.backend import ReferenceBackend
from tests.test_engine_backends import random_groups


def make_groups(num_groups=6, tile_rows=4, stream_rows=25, lanes=16, sparsity=0.6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((num_groups, tile_rows, stream_rows, lanes)) > sparsity


def pack_windows(windows):
    """Pack (batch, depth, lanes) boolean windows into one word each."""
    _, depth, lanes = windows.shape
    rows = pack_stream_rows(windows)
    words = rows[:, 0].copy()
    for step in range(1, depth):
        words |= rows[:, step] << np.uint64(step * lanes)
    return words


def assert_packed_matches_oracle(pattern, windows, advance_limit=None):
    """schedule_packed must equal schedule_step on every window."""
    depth, lanes = pattern.staging_depth, pattern.lanes
    claimed, advance, busy = BatchScheduler(pattern).schedule_packed(
        pack_windows(windows), advance_limit=advance_limit
    )
    claimed = unpack_claimed(claimed, depth, lanes)
    oracle = HardwareScheduler(pattern)
    for index, window in enumerate(windows):
        schedule = oracle.schedule_step(window, advance_limit=advance_limit)
        expected = np.zeros((depth, lanes), dtype=bool)
        for selection in schedule.selections:
            if selection is not None:
                expected[selection] = True
        assert np.array_equal(claimed[index], expected)
        assert advance[index] == schedule.advance
        assert busy[index] == schedule.busy_lanes


def unpack_claimed(claimed, depth, lanes):
    """Expand packed claim words back to (batch, depth, lanes) booleans."""
    out = np.zeros((claimed.shape[0], depth, lanes), dtype=bool)
    for step in range(depth):
        for lane in range(lanes):
            bit = np.uint64(step * lanes + lane)
            out[:, step, lane] = (claimed >> bit) & np.uint64(1) != 0
    return out


class TestTileCycles:
    def test_matches_functional_tile_model(self):
        """The vectorised cycle path agrees with the per-value tile model."""
        rng = np.random.default_rng(0)
        stream_rows, lanes = 30, 16
        accelerator = Accelerator()
        for seed in range(3):
            rng = np.random.default_rng(seed)
            b_streams = []
            for _ in range(4):
                b = rng.random((stream_rows, lanes))
                b[rng.random((stream_rows, lanes)) < 0.6] = 0.0
                b_streams.append(b)
            a_streams = [rng.random((stream_rows, lanes)) for _ in range(4)]
            functional = TensorDashTile().process(a_streams, b_streams, compute_outputs=False)
            effectual = np.stack([b != 0 for b in b_streams])
            assert accelerator.tile_cycles_batch(effectual[None])[0] == functional.cycles

    def test_batch_matches_individual_groups(self):
        accelerator = Accelerator()
        groups = make_groups(num_groups=8, seed=1)
        batched = accelerator.tile_cycles_batch(groups)
        individual = np.array([accelerator.tile_cycles_batch(g[None])[0] for g in groups])
        assert np.array_equal(batched, individual)

    def test_power_gated_matches_baseline(self):
        config = AcceleratorConfig(power_gated=True)
        accelerator = Accelerator(config)
        groups = make_groups(sparsity=0.9, seed=2)
        cycles = accelerator.tile_cycles_batch(groups)
        assert np.all(cycles == groups.shape[2])

    def test_empty_groups(self):
        accelerator = Accelerator()
        cycles = accelerator.tile_cycles_batch(np.zeros((0, 4, 10, 16), dtype=bool))
        assert cycles.shape == (0,)

    def test_rejects_bad_shape(self):
        accelerator = Accelerator()
        with pytest.raises(ValueError):
            accelerator.tile_cycles_batch(np.zeros((4, 10, 16), dtype=bool))


class TestRunOperation:
    def test_speedup_between_one_and_depth(self):
        accelerator = Accelerator()
        result = accelerator.run_operation_batched("AxW", make_groups(sparsity=0.7, seed=3))
        assert 1.0 <= result.speedup <= accelerator.config.pe.max_speedup

    def test_dense_operation_has_unit_speedup(self):
        accelerator = Accelerator()
        groups = np.ones((4, 4, 20, 16), dtype=bool)
        result = accelerator.run_operation_batched("AxW", groups)
        assert result.speedup == pytest.approx(1.0)
        assert result.potential_speedup == pytest.approx(1.0)

    def test_potential_speedup_upper_bounds_actual(self):
        accelerator = Accelerator()
        for sparsity in (0.3, 0.6, 0.9):
            result = accelerator.run_operation_batched("AxW", make_groups(sparsity=sparsity, seed=4))
            assert result.speedup <= result.potential_speedup + 1e-9

    def test_accepts_list_of_groups(self):
        accelerator = Accelerator()
        groups = [g for g in make_groups(num_groups=3, seed=5)]
        from_list = accelerator.run_operation_batched("AxW", groups)
        from_array = accelerator.run_operation_batched("AxW", np.stack(groups))
        assert from_list.tensordash_cycles == from_array.tensordash_cycles
        assert from_list.baseline_cycles == from_array.baseline_cycles

    def test_mac_accounting(self):
        accelerator = Accelerator()
        groups = make_groups(num_groups=2, tile_rows=4, stream_rows=10, seed=6)
        result = accelerator.run_operation_batched("WxG", groups)
        assert result.macs_total == 2 * 4 * 10 * 16
        assert result.macs_effectual == int(groups.sum())


class TestConfigPlumbing:
    def test_describe_mentions_geometry(self):
        description = Accelerator().describe()
        assert "16 tiles" in description
        assert "4x4" in description

    def test_staging_depth_two_configuration(self):
        config = AcceleratorConfig(pe=PEConfig(staging_depth=2))
        accelerator = Accelerator(config)
        groups = make_groups(sparsity=0.9, seed=7)
        deep = Accelerator().tile_cycles_batch(groups).sum()
        shallow = accelerator.tile_cycles_batch(groups).sum()
        assert shallow >= deep

    def test_row_geometry_affects_speedup(self):
        """Fig. 17: grouping more rows per tile cannot increase speedup."""
        rng = np.random.default_rng(8)
        streams = rng.random((16, 40, 16)) > 0.7
        accelerator = Accelerator()

        def speedup_with_rows(rows):
            grouped = streams.reshape(16 // rows, rows, 40, 16)
            tensordash = accelerator.tile_cycles_batch(grouped).sum()
            baseline = grouped.shape[0] * 40
            return baseline / tensordash

        assert speedup_with_rows(1) >= speedup_with_rows(4) >= speedup_with_rows(16)


class TestPackedScheduler:
    """schedule_packed must mirror the oracle's schedule_step bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_packed_matches_boolean_schedule(self, seed):
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(1, 4))
        pattern = ConnectivityPattern(lanes=16, staging_depth=depth)
        assert BatchScheduler(pattern).packable
        windows = rng.random((64, depth, 16)) >= float(rng.random())
        limit = int(rng.integers(1, depth + 1)) if rng.random() < 0.5 else None
        assert_packed_matches_oracle(pattern, windows, advance_limit=limit)

    def test_non_packable_config_rejects_packed_path(self):
        scheduler = BatchScheduler(
            ConnectivityPattern(lanes=32, staging_depth=3)
        )
        assert not scheduler.packable
        with pytest.raises(ValueError):
            scheduler.schedule_packed(np.zeros(4, dtype=np.uint64))


class TestRaggedBatchedKernels:
    """Ragged/fused batches must equal exactly-sized per-unit batches."""

    @pytest.mark.parametrize("seed", range(4))
    def test_tile_cycles_batch_ragged_matches_exact(self, seed):
        rng = np.random.default_rng(seed)
        acc = Accelerator()
        tile_rows = 4
        lanes = acc.config.pe.lanes
        rows = [int(r) for r in rng.integers(1, 30, size=5)]
        max_rows = max(rows)
        groups = np.zeros((len(rows), tile_rows, max_rows, lanes), dtype=bool)
        for index, r in enumerate(rows):
            groups[index, :, :r] = rng.random((tile_rows, r, lanes)) >= 0.6
        ragged = acc.tile_cycles_batch(
            groups, rows_per_group=np.array(rows, dtype=np.int64)
        )
        for index, r in enumerate(rows):
            exact = acc.tile_cycles_batch(groups[index : index + 1, :, :r])
            assert ragged[index] == exact[0], (index, r)

    @pytest.mark.parametrize("lanes,depth", [(16, 3), (32, 3)])
    def test_run_operations_batched_matches_per_unit(self, lanes, depth):
        # lanes=32 exceeds the 64-bit window and runs on the oracle's
        # walk; lanes=16 exercises the packed merge.
        rng = np.random.default_rng(lanes)
        config = AcceleratorConfig().with_pe(lanes=lanes, staging_depth=depth)
        acc = Accelerator(config)
        units = []
        for index in range(6):
            num_groups = int(rng.integers(1, 6))
            stream_rows = int(rng.integers(1, 25))
            units.append((
                f"op{index}",
                random_groups(rng, num_groups, 4, stream_rows, lanes=lanes,
                              sparsity=float(rng.random())),
            ))
        units.append(("empty", np.zeros((0, 4, 5, lanes), dtype=bool)))
        units.append(("norows", np.zeros((2, 4, 0, lanes), dtype=bool)))
        fused = acc.run_operations_batched(units)
        for (name, groups), result in zip(units, fused):
            assert result == acc.run_operation_batched(name, groups), name

    def test_run_operations_batched_rejects_mixed_tile_rows(self):
        acc = Accelerator()
        units = [
            ("a", np.zeros((1, 4, 3, 16), dtype=bool)),
            ("b", np.zeros((1, 2, 3, 16), dtype=bool)),
        ]
        with pytest.raises(ValueError):
            acc.run_operations_batched(units)

    def test_bucket_budget_splits_but_stays_identical(self):
        rng = np.random.default_rng(99)
        acc = Accelerator()
        units = [
            ("op", random_groups(rng, 3, 4, int(r), sparsity=0.5))
            for r in rng.integers(1, 40, size=8)
        ]
        expected = [acc.run_operation_batched(n, g) for n, g in units]
        old_budget = BatchScheduler.BATCH_WORD_BUDGET
        try:
            BatchScheduler.BATCH_WORD_BUDGET = 256  # force many tiny buckets
            fused = acc.run_operations_batched(units)
        finally:
            BatchScheduler.BATCH_WORD_BUDGET = old_budget
        assert fused == expected


class TestInputValidation:
    """Bad group shapes fail loudly on every path instead of miscounting."""

    @pytest.mark.parametrize("path", [
        "reference", "tile_cycles_batch", "run_operation_batched",
        "run_operations_batched", "stream_cycles",
    ])
    def test_wrong_lane_count_names_both_counts(self, path):
        acc = Accelerator()
        groups = make_groups(num_groups=3, tile_rows=4, stream_rows=5, lanes=8)
        calls = {
            "reference": lambda: ReferenceBackend().run_operation(acc, "AxW", groups),
            "tile_cycles_batch": lambda: acc.tile_cycles_batch(groups),
            "run_operation_batched": lambda: acc.run_operation_batched("AxW", groups),
            "run_operations_batched": lambda: acc.run_operations_batched(
                [("AxW", make_groups(num_groups=1, stream_rows=5)), ("AxG", groups)]
            ),
            "stream_cycles": lambda: acc.batch_scheduler.stream_cycles(groups[0, 0]),
        }
        with pytest.raises(ValueError, match=r"\b8 lanes.*expects 16"):
            calls[path]()

    @pytest.mark.parametrize("rows", [[10, 25, 10], [10, 10, 14], [-3, 10, 10]])
    def test_rows_per_group_outside_stream_rows_is_rejected(self, rows):
        acc = Accelerator()
        groups = make_groups(num_groups=3, tile_rows=4, stream_rows=10)
        with pytest.raises(ValueError, match=r"rows_per_group.*\[0, 10\]"):
            acc.tile_cycles_batch(groups, rows_per_group=rows)

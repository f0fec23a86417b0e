"""Tests for the baseline and TensorDash processing elements."""

import numpy as np
import pytest

from repro.core.config import PEConfig
from repro.core.pe import BaselinePE, TensorDashPE


def make_streams(rows=40, lanes=16, a_sparsity=0.0, b_sparsity=0.6, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.random((rows, lanes))
    b = rng.random((rows, lanes))
    a[rng.random((rows, lanes)) < a_sparsity] = 0.0
    b[rng.random((rows, lanes)) < b_sparsity] = 0.0
    return a, b


class TestBaselinePE:
    def test_cycles_equal_rows(self):
        a, b = make_streams(rows=25)
        result = BaselinePE().process(a, b)
        assert result.cycles == 25

    def test_output_is_full_dot_product(self):
        a, b = make_streams(rows=10)
        result = BaselinePE().process(a, b)
        assert result.output == pytest.approx(float(np.sum(a * b)))

    def test_all_mac_slots_count_as_performed(self):
        a, b = make_streams(rows=10)
        result = BaselinePE().process(a, b)
        assert result.macs_performed == result.macs_total == 10 * 16

    def test_rejects_mismatched_shapes(self):
        a, b = make_streams(rows=10)
        with pytest.raises(ValueError):
            BaselinePE().process(a, b[:5])


class TestTensorDashPE:
    def test_functional_equivalence_one_side(self):
        """Skipping ineffectual MACs never changes the accumulated output."""
        for seed in range(5):
            a, b = make_streams(b_sparsity=0.7, seed=seed)
            baseline = BaselinePE().process(a, b)
            result, _ = TensorDashPE().process(a, b)
            assert result.output == pytest.approx(baseline.output, rel=1e-9)

    def test_functional_equivalence_two_side(self):
        for seed in range(5):
            a, b = make_streams(a_sparsity=0.4, b_sparsity=0.4, seed=seed)
            baseline = BaselinePE().process(a, b)
            result, _ = TensorDashPE(two_side=True).process(a, b)
            assert result.output == pytest.approx(baseline.output, rel=1e-9)

    def test_never_slower_than_baseline(self):
        for sparsity in (0.0, 0.2, 0.5, 0.9):
            a, b = make_streams(b_sparsity=sparsity, seed=1)
            baseline = BaselinePE().process(a, b)
            result, _ = TensorDashPE().process(a, b)
            assert result.cycles <= baseline.cycles

    def test_dense_streams_match_baseline_cycles(self):
        a, b = make_streams(b_sparsity=0.0)
        result, _ = TensorDashPE().process(a, b)
        assert result.cycles == a.shape[0]

    def test_speedup_capped_by_staging_depth(self):
        a, b = make_streams(b_sparsity=0.99, rows=90)
        pe = TensorDashPE()
        speedup = pe.speedup_over_baseline(a, b)
        assert speedup <= 3.0 + 1e-9

    def test_two_side_skips_more_than_one_side(self):
        a, b = make_streams(a_sparsity=0.5, b_sparsity=0.5, rows=120, seed=3)
        one_side, _ = TensorDashPE().process(a, b)
        two_side, _ = TensorDashPE(two_side=True).process(a, b)
        assert two_side.macs_performed <= one_side.macs_performed
        assert two_side.cycles <= one_side.cycles

    def test_macs_performed_equal_nonzero_b_count_one_side(self):
        a, b = make_streams(b_sparsity=0.6, seed=2)
        result, _ = TensorDashPE().process(a, b)
        assert result.macs_performed == int(np.count_nonzero(b))

    def test_skipped_macs_property(self):
        a, b = make_streams(b_sparsity=0.6, seed=2)
        result, _ = TensorDashPE().process(a, b)
        assert result.skipped_macs == result.macs_total - result.macs_performed

    def test_deeper_staging_buffer_is_at_least_as_fast(self):
        a, b = make_streams(b_sparsity=0.8, rows=90, seed=4)
        shallow, _ = TensorDashPE(PEConfig(staging_depth=2)).process(a, b)
        deep, _ = TensorDashPE(PEConfig(staging_depth=3)).process(a, b)
        assert deep.cycles <= shallow.cycles

    def test_schedules_returned_per_cycle(self):
        a, b = make_streams(rows=30, seed=5)
        result, schedules = TensorDashPE().process(a, b)
        assert len(schedules) == result.cycles

    def test_rejects_wrong_lane_count(self):
        a = np.ones((10, 8))
        with pytest.raises(ValueError):
            TensorDashPE().process(a, a)


class TestRandomSparsitySweep:
    """PE-level version of the Fig. 20 experiment shape."""

    def test_speedup_tracks_sparsity(self):
        rng = np.random.default_rng(0)
        previous = 1.0
        for sparsity in (0.1, 0.3, 0.5, 0.7, 0.9):
            a = rng.random((300, 16))
            b = rng.random((300, 16))
            b[rng.random((300, 16)) < sparsity] = 0.0
            speedup = TensorDashPE().speedup_over_baseline(a, b)
            ideal = min(1.0 / (1.0 - sparsity), 3.0)
            assert speedup >= previous - 0.05        # monotone (small tolerance)
            assert speedup <= ideal + 1e-9           # never beats the ideal
            assert speedup >= 0.75 * ideal           # captures most of it
            previous = speedup

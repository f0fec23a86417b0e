"""Tests for the hierarchical hardware scheduler."""

import numpy as np
import pytest

from repro.core.interconnect import ConnectivityPattern
from repro.core.scheduler import BatchScheduler, HardwareScheduler
from tests.test_core_accelerator import assert_planes_match_oracle


def window(depth=3, lanes=16, fill=False):
    return np.full((depth, lanes), fill, dtype=bool)


class TestSingleStep:
    def setup_method(self):
        self.scheduler = HardwareScheduler()

    def test_dense_window_uses_dense_schedule(self):
        schedule = self.scheduler.schedule_step(window(fill=True))
        assert schedule.busy_lanes == 16
        for lane, selection in enumerate(schedule.selections):
            assert selection == (0, lane)
        assert schedule.advance == 1

    def test_empty_window_advances_full_depth(self):
        schedule = self.scheduler.schedule_step(window(fill=False))
        assert schedule.busy_lanes == 0
        assert schedule.advance == 3

    def test_single_sparse_row_advances_by_depth(self):
        w = window()
        # Only the last (deepest) row has work; all of it fits in one cycle.
        w[2, :] = True
        schedule = self.scheduler.schedule_step(w)
        assert schedule.busy_lanes == 16
        assert schedule.advance == 3

    def test_every_effectual_pair_selected_at_most_once(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = rng.random((3, 16)) > 0.5
            schedule = self.scheduler.schedule_step(w)
            chosen = [s for s in schedule.selections if s is not None]
            assert len(chosen) == len(set(chosen))
            for step, lane in chosen:
                assert w[step, lane]

    def test_row_zero_always_fully_consumed(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = rng.random((3, 16)) > 0.3
            schedule = self.scheduler.schedule_step(w)
            row0 = set(np.flatnonzero(w[0]))
            consumed = {lane for s in schedule.selections if s is not None and s[0] == 0
                        for lane in [s[1]]}
            assert row0 == consumed

    def test_advance_is_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = rng.random((3, 16)) > 0.2
            assert self.scheduler.schedule_step(w).advance >= 1

    def test_select_signals_match_selected_positions(self):
        rng = np.random.default_rng(5)
        pattern = ConnectivityPattern()
        w = rng.random((3, 16)) > 0.5
        schedule = self.scheduler.schedule_step(w)
        for lane, (selection, signal) in enumerate(
            zip(schedule.selections, schedule.select_signals)
        ):
            if selection is None:
                assert signal is None
            else:
                assert pattern.options_for_lane(lane)[signal] == selection

    def test_rejects_wrong_window_shape(self):
        with pytest.raises(ValueError):
            self.scheduler.schedule_step(np.zeros((2, 16), dtype=bool))

    def test_utilization_reflects_busy_lanes(self):
        w = window()
        w[0, :8] = True
        schedule = self.scheduler.schedule_step(w)
        assert schedule.utilization == pytest.approx(8 / 16)


class TestFigure7Example:
    """The worked example of Fig. 7: 4 lanes, 4 time steps, 7 effectual pairs."""

    def test_example_completes_in_two_cycles_with_4_lane_pe(self):
        # Effectual pairs from Fig. 7a (time x lane), lanes 0..3, times 0..3.
        effectual = np.array(
            [
                [0, 1, 0, 0],   # t=0: a1/b1 only
                [1, 1, 1, 1],   # t=1: all four pairs effectual
                [0, 0, 0, 0],   # t=2: none (a or b zero everywhere)
                [1, 0, 0, 1],   # t=3: lanes 0 and 3
            ],
            dtype=bool,
        )
        pattern = ConnectivityPattern(lanes=4, staging_depth=3)
        scheduler = HardwareScheduler(pattern)
        cycles, _ = scheduler.process_stream(effectual)
        assert cycles == 2


class TestStreamProcessing:
    def setup_method(self):
        self.scheduler = HardwareScheduler()

    def test_dense_stream_takes_one_cycle_per_row(self):
        stream = np.ones((20, 16), dtype=bool)
        cycles, _ = self.scheduler.process_stream(stream)
        assert cycles == 20

    def test_empty_stream_takes_ceil_rows_over_depth_cycles(self):
        stream = np.zeros((20, 16), dtype=bool)
        cycles, _ = self.scheduler.process_stream(stream)
        assert cycles == -(-20 // 3)

    def test_speedup_never_exceeds_staging_depth(self):
        rng = np.random.default_rng(0)
        for sparsity in (0.3, 0.6, 0.9, 0.99):
            stream = rng.random((60, 16)) > sparsity
            cycles, _ = self.scheduler.process_stream(stream)
            assert cycles >= 60 / 3
            assert cycles <= 60

    def test_all_effectual_pairs_consumed_exactly_once(self):
        rng = np.random.default_rng(1)
        stream = rng.random((30, 16)) > 0.5
        cycles, schedules = self.scheduler.process_stream(stream)
        # Count of selections equals count of effectual pairs.
        selected = sum(s.busy_lanes for s in schedules)
        assert selected == int(stream.sum())

    def test_rejects_wrong_lane_count(self):
        with pytest.raises(ValueError):
            self.scheduler.process_stream(np.ones((10, 8), dtype=bool))


class TestBatchScheduler:
    def test_matches_hardware_scheduler_on_random_windows(self):
        rng = np.random.default_rng(42)
        windows = rng.random((64, 3, 16)) > 0.55
        assert_planes_match_oracle(ConnectivityPattern(), windows)

    def test_stream_cycles_matches_sequential_processing(self):
        rng = np.random.default_rng(9)
        hardware = HardwareScheduler()
        batch = BatchScheduler()
        for sparsity in (0.2, 0.5, 0.8):
            stream = rng.random((40, 16)) > sparsity
            sequential_cycles, _ = hardware.process_stream(stream)
            assert batch.stream_cycles(stream) == sequential_cycles

    def test_batch_streams_are_independent(self):
        rng = np.random.default_rng(10)
        batch = BatchScheduler()
        streams = rng.random((8, 25, 16)) > 0.6
        together = batch.stream_cycles_batch(streams)
        separate = np.array([batch.stream_cycles(s) for s in streams])
        assert np.array_equal(together, separate)

    def test_empty_batch_returns_zero_cycles(self):
        batch = BatchScheduler()
        assert batch.stream_cycles_batch(np.zeros((3, 0, 16), dtype=bool)).tolist() == [0, 0, 0]

    def test_rejects_wrong_window_shape(self):
        batch = BatchScheduler()
        with pytest.raises(ValueError, match="8 lanes, scheduler expects 16"):
            batch.stream_cycles_batch(np.zeros((4, 2, 8), dtype=bool))

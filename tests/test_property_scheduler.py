"""Property-based tests (hypothesis) for the scheduler invariants.

These cover the correctness properties the paper's hardware relies on:

* every effectual pair is consumed exactly once over a stream, and by
  its own PE row over a lockstep group's walk,
* skipping ineffectual pairs never changes the accumulated output,
* the schedule is valid (no pair selected twice within a step, every
  selection points at a pending effectual pair),
* the cycle count is bounded below by ``rows / staging_depth`` and above
  by ``rows`` (never slower than the dense baseline),
* the bit-plane batch kernel is bit-identical to the reference model,
  step by step (``schedule_planes`` vs ``schedule_step``) and cycle for
  cycle over ragged lockstep batches (``tile_cycles`` vs ``walk``), at
  every geometry, windows wider than a machine word included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from benchmarks.bench_ablation_interconnect import VARIANTS
from repro.core.interconnect import ConnectivityPattern
from repro.core.pe import BaselinePE, TensorDashPE
from repro.core.scheduler import BatchScheduler, HardwareScheduler
from tests.test_core_accelerator import assert_planes_match_oracle

#: A non-paper interconnect: deeper lookahead, asymmetric lookaside.
CUSTOM_TEMPLATE = ((0, 0), (1, 0), (1, 1), (2, -1), (3, 0), (2, 2), (3, -3))

#: (lanes, staging depth, template): tiny, paper and wider-than-a-word
#: windows, and the interconnect ablation's 12-option template.
GEOMETRIES = [
    (1, 1, None), (3, 4, None), (16, 2, None), (16, 3, None), (16, 5, None),
    (32, 3, None), (80, 2, None), (16, 3, VARIANTS["3-deep wide (12 options)"][1]),
]
#: Windows of more than 64 staging slots.
WIDE_GEOMETRIES = [(16, 5), (16, 6), (32, 3), (80, 2)]


def geometry_id(geometry):
    lanes, depth, template = geometry
    return f"{lanes}x{depth}" + ("-wide-template" if template else "")


def effectual_windows(depth=3, lanes=16):
    return arrays(np.bool_, (depth, lanes), elements=st.booleans())


def effectual_streams(max_rows=20, lanes=16):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda rows: arrays(np.bool_, (rows, lanes), elements=st.booleans())
    )


@st.composite
def ragged_batches(draw):
    """A pattern, ragged lockstep units for it and a refill limit."""
    lanes = draw(st.sampled_from([4, 8, 16]))
    depth = draw(st.integers(min_value=1, max_value=4))
    template = draw(st.sampled_from([None, CUSTOM_TEMPLATE]))
    pattern = ConnectivityPattern(lanes=lanes, staging_depth=depth, template=template)
    tile_rows = draw(st.integers(min_value=1, max_value=4))
    units = [
        draw(arrays(np.bool_, (groups, tile_rows, rows, lanes), elements=st.booleans()))
        for groups, rows in draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 12)), min_size=1, max_size=4
        ))
    ]
    limit = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=depth)))
    return pattern, units, limit


@st.composite
def value_stream_pairs(draw, max_rows=12, lanes=16):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    shape = (rows, lanes)
    a_zero = draw(arrays(np.bool_, shape, elements=st.booleans()))
    b_zero = draw(arrays(np.bool_, shape, elements=st.booleans()))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    a = rng.uniform(0.5, 2.0, size=shape)
    b = rng.uniform(0.5, 2.0, size=shape)
    a[a_zero] = 0.0
    b[b_zero] = 0.0
    return a, b


def walked_cycles(pattern, units, limit):
    """Per group, the cycles HardwareScheduler.walk takes."""
    oracle = HardwareScheduler(pattern)
    return [
        sum(1 for _ in oracle.walk(group, advance_limit=limit))
        for groups in units
        for group in groups
    ]


class TestSchedulerStepProperties:
    @settings(max_examples=200, deadline=None)
    @given(effectual_windows())
    def test_schedule_is_valid(self, window):
        scheduler = HardwareScheduler()
        schedule = scheduler.schedule_step(window)
        chosen = [s for s in schedule.selections if s is not None]
        # No duplicates, and every selection points at an effectual pair.
        assert len(chosen) == len(set(chosen))
        for step, lane in chosen:
            assert window[step, lane]

    @settings(max_examples=200, deadline=None)
    @given(effectual_windows())
    def test_row_zero_is_always_drained(self, window):
        scheduler = HardwareScheduler()
        schedule = scheduler.schedule_step(window)
        consumed_row0 = {
            lane for selection in schedule.selections
            if selection is not None and selection[0] == 0
            for lane in [selection[1]]
        }
        assert consumed_row0 == set(np.flatnonzero(window[0]))
        assert 1 <= schedule.advance <= 3

    @settings(max_examples=200, deadline=None)
    @given(effectual_windows())
    def test_batch_scheduler_is_bit_identical(self, window):
        assert_planes_match_oracle(ConnectivityPattern(), window[None])


class TestStreamProperties:
    @settings(max_examples=100, deadline=None)
    @given(effectual_streams())
    def test_every_effectual_pair_consumed_exactly_once(self, stream):
        scheduler = HardwareScheduler()
        cycles, schedules = scheduler.process_stream(stream)
        consumed = sum(s.busy_lanes for s in schedules)
        assert consumed == int(stream.sum())

    @settings(max_examples=100, deadline=None)
    @given(effectual_streams())
    def test_cycles_bounded_by_depth_and_rows(self, stream):
        scheduler = HardwareScheduler()
        cycles, _ = scheduler.process_stream(stream)
        rows = stream.shape[0]
        assert cycles <= rows
        assert cycles >= -(-rows // 3)

    @settings(max_examples=50, deadline=None)
    @given(effectual_streams(max_rows=15))
    def test_batch_stream_cycles_match_reference(self, stream):
        reference, _ = HardwareScheduler().process_stream(stream)
        assert BatchScheduler().stream_cycles(stream) == reference


class TestLockstepKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(ragged_batches())
    def test_ragged_packed_loop_matches_walk(self, batch):
        """The plane lockstep loop counts the cycles the oracle walks."""
        pattern, units, limit = batch
        kernel = BatchScheduler(pattern)
        assert kernel.tile_cycles(units, advance_limit=limit).tolist() == walked_cycles(
            pattern, units, limit
        )

    @settings(max_examples=150, deadline=None)
    @given(ragged_batches())
    def test_walk_claims_each_effectual_slot_once(self, batch):
        """Across a lockstep walk, every row claims each of its effectual
        slots exactly once and nothing else."""
        pattern, units, limit = batch
        oracle = HardwareScheduler(pattern)
        for groups in units:
            for group in groups:
                claims = [
                    (row, position + step, lane)
                    for position, schedules, _ in oracle.walk(group, advance_limit=limit)
                    for row, schedule in enumerate(schedules)
                    for step, lane in filter(None, schedule.selections)
                ]
                assert len(claims) == len(set(claims))
                assert sorted(claims) == [tuple(slot) for slot in np.argwhere(group)]


class TestPlaneKernel:
    """The plane kernel runs every geometry the config accepts."""

    @pytest.mark.parametrize("limited", [False, True], ids=["unlimited", "limited"])
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=geometry_id)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_plane_step_matches_schedule_step(self, geometry, limited, data):
        """Window by window, one plane step is the oracle's schedule_step."""
        lanes, depth, template = geometry
        pattern = ConnectivityPattern(lanes=lanes, staging_depth=depth, template=template)
        count = data.draw(st.integers(min_value=1, max_value=12))
        windows = data.draw(arrays(np.bool_, (count, depth, lanes), elements=st.booleans()))
        limit = data.draw(st.integers(min_value=1, max_value=depth)) if limited else None
        assert_planes_match_oracle(pattern, windows, advance_limit=limit)

    @pytest.mark.parametrize("lanes,depth", WIDE_GEOMETRIES,
                             ids=[f"{lanes}x{depth}" for lanes, depth in WIDE_GEOMETRIES])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_wide_windows_match_walk(self, lanes, depth, data):
        """Ragged batches of windows wider than 64 bits count walk's cycles."""
        pattern = ConnectivityPattern(lanes=lanes, staging_depth=depth)
        tile_rows = data.draw(st.integers(min_value=1, max_value=3))
        density = data.draw(st.floats(min_value=0.0, max_value=1.0))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**16)))
        units = [
            rng.random((groups, tile_rows, rows, lanes)) < density
            for groups, rows in data.draw(st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 12)), min_size=1, max_size=4
            ))
        ]
        limit = data.draw(st.one_of(st.none(), st.integers(min_value=1, max_value=depth)))
        kernel = BatchScheduler(pattern)
        assert kernel.tile_cycles(units, advance_limit=limit).tolist() == walked_cycles(
            pattern, units, limit
        )

    @pytest.mark.parametrize("limit", [None, 2])
    def test_finished_groups_leave_the_planes(self, limit):
        """Groups of one bucket that finish far apart are dropped as they
        go, and every group still counts walk's cycles."""
        rng = np.random.default_rng(5)
        # Densities from empty to full: cycle counts spread from
        # rows / depth to rows.
        density = np.linspace(0.0, 1.0, 32)[:, None, None, None]
        units = [rng.random((32, 2, 45, 16)) < density, rng.random((8, 2, 30, 16)) < 0.5]
        pattern = ConnectivityPattern()
        kernel = BatchScheduler(pattern)
        widths = []
        step = kernel.schedule_planes

        def recording_step(planes, windows, advance_limit=None):
            widths.append(windows)
            return step(planes, windows, advance_limit)

        kernel.schedule_planes = recording_step
        cycles = kernel.tile_cycles(units, advance_limit=limit)
        assert cycles.tolist() == walked_cycles(pattern, units, limit)
        assert len(set(widths)) >= 3, sorted(set(widths))


class TestPEProperties:
    @settings(max_examples=50, deadline=None)
    @given(value_stream_pairs())
    def test_functional_equivalence_one_side(self, streams):
        a, b = streams
        baseline = BaselinePE().process(a, b)
        result, _ = TensorDashPE().process(a, b)
        assert np.isclose(result.output, baseline.output, rtol=1e-9, atol=1e-9)
        assert result.cycles <= baseline.cycles

    @settings(max_examples=50, deadline=None)
    @given(value_stream_pairs())
    def test_functional_equivalence_two_side(self, streams):
        a, b = streams
        baseline = BaselinePE().process(a, b)
        result, _ = TensorDashPE(two_side=True).process(a, b)
        assert np.isclose(result.output, baseline.output, rtol=1e-9, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(value_stream_pairs())
    def test_macs_performed_matches_nonzero_b(self, streams):
        a, b = streams
        result, _ = TensorDashPE().process(a, b)
        assert result.macs_performed == int(np.count_nonzero(b))

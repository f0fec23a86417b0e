"""Tests for the tile's lockstep design.

A tile's PE rows each schedule their own B stream, but they share the
A-side staging buffers down the columns, so every row advances through the
dense schedule in lockstep.  The functional checks accumulate outputs from
the selections of :meth:`repro.core.scheduler.HardwareScheduler.walk`;
the cycle checks run the live kernel,
:meth:`repro.core.accelerator.Accelerator.tile_cycles_batch`.
"""

import numpy as np

from repro.core.accelerator import Accelerator
from repro.core.pe import TensorDashPE
from repro.core.scheduler import HardwareScheduler


def make_tile_streams(rows=4, columns=4, stream_rows=30, lanes=16, sparsity=0.6, seed=0):
    """Dense A streams, one per column, and sparse B streams, one per row."""
    rng = np.random.default_rng(seed)
    a = rng.random((columns, stream_rows, lanes))
    b = rng.random((rows, stream_rows, lanes))
    b[rng.random((rows, stream_rows, lanes)) < sparsity] = 0.0
    return a, b


def walk_tile_outputs(a, b):
    """Accumulate each row's selections against every column's A stream."""
    outputs = np.zeros((b.shape[0], a.shape[0]))
    for position, schedules, _ in HardwareScheduler().walk(b != 0):
        for row, schedule in enumerate(schedules):
            for selection in schedule.selections:
                if selection is not None:
                    step, lane = selection
                    stream_row = position + step
                    outputs[row] += a[:, stream_row, lane] * b[row, stream_row, lane]
    return outputs


def tile_cycles(b):
    """Cycles of one lockstep group whose rows schedule the B streams ``b``."""
    return int(Accelerator().tile_cycles_batch((b != 0)[None])[0])


class TestTensorDashTile:
    def test_functional_equivalence_with_baseline(self):
        a, b = make_tile_streams(sparsity=0.7, seed=1)
        dense = np.einsum("ctl,rtl->rc", a, b)
        assert np.allclose(walk_tile_outputs(a, b), dense)

    def test_never_slower_than_baseline(self):
        for sparsity in (0.0, 0.4, 0.8):
            _, b = make_tile_streams(sparsity=sparsity, seed=2)
            assert tile_cycles(b) <= b.shape[1]

    def test_dense_tile_matches_baseline_cycles(self):
        _, b = make_tile_streams(sparsity=0.0)
        assert tile_cycles(b) == b.shape[1]

    def test_tile_slower_than_isolated_rows(self):
        """Rows wait for the densest row: tile cycles >= any single row's cycles."""
        _, b = make_tile_streams(sparsity=0.6, seed=3)
        isolated = Accelerator().tile_cycles_batch((b != 0)[:, None])
        assert tile_cycles(b) >= isolated.max()

    def test_single_row_tile_matches_pe(self):
        a, b = make_tile_streams(rows=1, columns=1, sparsity=0.7, seed=4)
        pe_result, _ = TensorDashPE().process(a[0], b[0])
        assert tile_cycles(b) == pe_result.cycles

    def test_more_rows_reduce_speedup(self):
        """The Fig. 17 trend: more rows per tile means more imbalance stalls."""
        _, b = make_tile_streams(rows=8, columns=1, stream_rows=60, sparsity=0.7, seed=5)
        effectual = b != 0

        def tile_speedup(num_rows):
            groups = effectual.reshape(8 // num_rows, num_rows, *effectual.shape[1:])
            total_cycles = Accelerator().tile_cycles_batch(groups).sum()
            return groups.shape[0] * groups.shape[2] / total_cycles

        assert tile_speedup(1) >= tile_speedup(4) >= tile_speedup(8) - 1e-9

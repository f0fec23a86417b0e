"""Property-based tests for memory-side invariants.

* Pre-scheduling (scheduled-form storage) round-trips arbitrary operand
  streams and never stores more rows than the dense form.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backside import PreScheduler


@st.composite
def operand_streams(draw, lanes=16, max_rows=30):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    sparsity = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(seed)
    stream = rng.uniform(0.5, 2.0, size=(rows, lanes))
    stream[rng.random(stream.shape) < sparsity] = 0.0
    return stream


class TestPreSchedulingProperties:
    @settings(max_examples=60, deadline=None)
    @given(operand_streams())
    def test_scheduled_form_roundtrip(self, stream):
        scheduler = PreScheduler()
        assert np.allclose(scheduler.roundtrip(stream), stream)

    @settings(max_examples=60, deadline=None)
    @given(operand_streams())
    def test_scheduled_rows_bounded(self, stream):
        scheduler = PreScheduler()
        scheduled = scheduler.compress(stream)
        rows = stream.shape[0]
        assert -(-rows // 3) <= scheduled.scheduled_row_count <= rows

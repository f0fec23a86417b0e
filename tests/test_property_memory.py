"""Property-based tests for memory-side invariants.

* Zero run-length coding round-trips arbitrary sparse streams.
* Pre-scheduling (scheduled-form storage) round-trips arbitrary operand
  streams and never stores more rows than the dense form.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backside import PreScheduler
from repro.memory.compression import run_length_decode, run_length_encode


@st.composite
def sparse_vectors(draw, max_length=300):
    length = draw(st.integers(min_value=0, max_value=max_length))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    sparsity = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(seed)
    values = rng.normal(size=length)
    values[rng.random(length) < sparsity] = 0.0
    return values


@st.composite
def operand_streams(draw, lanes=16, max_rows=30):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    sparsity = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(seed)
    stream = rng.uniform(0.5, 2.0, size=(rows, lanes))
    stream[rng.random(stream.shape) < sparsity] = 0.0
    return stream


class TestCompressionProperties:
    @settings(max_examples=100, deadline=None)
    @given(sparse_vectors())
    def test_run_length_roundtrip(self, values):
        encoded = run_length_encode(values)
        assert np.allclose(run_length_decode(encoded, len(values)), values)

    @settings(max_examples=100, deadline=None)
    @given(sparse_vectors())
    def test_encoded_records_never_exceed_values_plus_one(self, values):
        encoded = run_length_encode(values)
        nonzero = int(np.count_nonzero(values))
        # One record per non-zero plus at most the zero-run terminators.
        assert len(encoded) <= nonzero + max(1, len(values) // 255 + 1)


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

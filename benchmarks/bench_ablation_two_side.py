"""Ablation: one-side (B-side) versus two-side sparsity extraction per PE.

The paper's tiles extract sparsity only from one operand ("there is
sufficient sparsity on one of the operands in each of the three major
operations"); the PE itself can be configured to exploit both.  This
ablation quantifies what two-side scheduling would add at the PE level for
operand streams with sparsity on both sides.
"""

import numpy as np

from benchmarks.common import print_header
from repro.analysis.reporting import format_table
from repro.core.pe import BaselinePE, TensorDashPE

SPARSITY_PAIRS = ((0.3, 0.3), (0.5, 0.5), (0.7, 0.3), (0.3, 0.7), (0.7, 0.7))
STREAM_ROWS = 120
SAMPLES = 3


def _streams(a_sparsity, b_sparsity, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0, size=(STREAM_ROWS, 16))
    b = rng.uniform(0.5, 2.0, size=(STREAM_ROWS, 16))
    a[rng.random(a.shape) < a_sparsity] = 0.0
    b[rng.random(b.shape) < b_sparsity] = 0.0
    return a, b


def compute_two_side_ablation():
    one_side = TensorDashPE()
    two_side = TensorDashPE(two_side=True)
    baseline = BaselinePE()
    rows = []
    for a_sparsity, b_sparsity in SPARSITY_PAIRS:
        one_speedups, two_speedups = [], []
        for sample in range(SAMPLES):
            a, b = _streams(a_sparsity, b_sparsity, seed=sample)
            base_cycles = baseline.process(a, b).cycles
            one_speedups.append(base_cycles / one_side.process(a, b)[0].cycles)
            two_speedups.append(base_cycles / two_side.process(a, b)[0].cycles)
        rows.append(
            (a_sparsity, b_sparsity, float(np.mean(one_speedups)), float(np.mean(two_speedups)))
        )
    return rows


def test_ablation_one_vs_two_side(benchmark):
    rows = benchmark.pedantic(compute_two_side_ablation, rounds=1, iterations=1)

    print_header(
        "Ablation - one-side (B) vs two-side sparsity extraction at the PE",
        "Paper design choice (Section 3.3): one side suffices for training tensors.",
    )
    print(format_table(
        "PE speedup by extraction mode",
        ["A sparsity", "B sparsity", "one-side", "two-side"],
        [[a, b, one, two] for a, b, one, two in rows],
    ))

    for a_sparsity, b_sparsity, one, two in rows:
        assert two >= one - 1e-9, "two-side can never be slower than one-side"
        assert one >= 1.0 and two <= 3.0 + 1e-9
    # Where the A side is much sparser than the B side, two-side wins clearly.
    asym = [r for r in rows if r[0] > r[1]][0]
    assert asym[3] > asym[2] * 1.1

"""Ablation: sparse-interconnect geometry (lookahead depth and lookaside breadth).

The interconnect geometry (``repro.core.interconnect``) is the central
design choice: the paper settles on 2 lookahead steps plus 5 lookaside
options (8 total) after noting a lookahead of 3 "is more than
sufficient".  This ablation
sweeps the template from dense-only up to a wider-than-paper variant to
show the diminishing returns that justify the 8-option design point.
"""

import numpy as np

from benchmarks.common import print_header
from repro.analysis.reporting import format_table
from repro.core.interconnect import ConnectivityPattern
from repro.core.scheduler import BatchScheduler

STREAM_ROWS = 200
SPARSITY = 0.7
SAMPLES = 3

#: Interconnect variants: name -> (staging_depth, template or None for default).
VARIANTS = {
    "dense only (1 option)": (1, None),
    "lookahead only (depth 3)": (3, [(0, 0), (1, 0), (2, 0)]),
    "2-deep paper (5 options)": (2, None),
    "3-deep paper (8 options)": (3, None),
    "3-deep wide (12 options)": (
        3,
        [(0, 0), (1, 0), (2, 0), (1, -1), (1, 1), (2, -2), (2, 2), (1, -3),
         (2, -1), (2, 1), (1, -2), (1, 2)],
    ),
}


def compute_interconnect_sweep():
    rows = []
    for name, (depth, template) in VARIANTS.items():
        pattern = ConnectivityPattern(lanes=16, staging_depth=depth, template=template)
        scheduler = BatchScheduler(pattern)
        speedups = []
        for sample in range(SAMPLES):
            rng = np.random.default_rng(sample)
            effectual = rng.random((STREAM_ROWS, 16)) >= SPARSITY
            cycles = int(scheduler.stream_cycles(effectual))
            speedups.append(STREAM_ROWS / cycles)
        rows.append((name, pattern.options_per_lane, float(np.mean(speedups))))
    return rows


def test_ablation_interconnect_geometry(benchmark):
    rows = benchmark.pedantic(compute_interconnect_sweep, rounds=1, iterations=1)

    print_header(
        "Ablation - interconnect geometry (lookahead / lookaside options per lane)",
        "Design choice: 8 options capture nearly all the benefit; wider muxes add little.",
    )
    print(format_table(
        f"Speedup at {int(SPARSITY * 100)}% operand sparsity",
        ["variant", "options/lane", "speedup"],
        [[name, options, speedup] for name, options, speedup in rows],
    ))

    by_name = {name: speedup for name, _, speedup in rows}
    assert by_name["dense only (1 option)"] == 1.0
    assert by_name["lookahead only (depth 3)"] > 1.0
    assert by_name["2-deep paper (5 options)"] <= 2.0 + 1e-9
    assert by_name["3-deep paper (8 options)"] > by_name["2-deep paper (5 options)"]
    assert by_name["3-deep paper (8 options)"] > by_name["lookahead only (depth 3)"]
    # Diminishing returns: widening beyond the paper's 8 options adds <10%.
    wide = by_name["3-deep wide (12 options)"]
    paper = by_name["3-deep paper (8 options)"]
    assert wide >= paper - 1e-9
    assert wide <= paper * 1.10

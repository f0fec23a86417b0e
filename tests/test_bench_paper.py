"""The paper ledger (``benchmarks/bench_paper.py``) against its committed file.

Fig. 20 and the interconnect, scheduler-quality and two-side ablations
train nothing and call no BLAS routine, so they compute the same values
on any host.  Recomputing them here catches a ``BENCH_paper.json`` that
was not regenerated after a change to these rows or to the code they
run, without the CI benchmark job.
"""

import json
from pathlib import Path

import pytest

from benchmarks import bench_paper
from repro.lineage.bench import PAPER_ENTRIES, PAPER_VALUES

COMMITTED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_paper.json").read_text()
)


@pytest.mark.parametrize(
    "name", ["fig20", "interconnect", "scheduler_quality", "two_side"]
)
def test_synthetic_row_equals_the_committed_ledger(name):
    values, checks = getattr(bench_paper, name)()
    assert bench_paper.ledger_entry(name, values, checks) == COMMITTED[name]


def test_the_watch_covers_every_ledger_row_and_entry():
    assert list(PAPER_VALUES) == [
        f"{entry}.{path}" for entry, path, _, _ in bench_paper.LEDGER
    ]
    entries = set(COMMITTED) - {"benchmark", "training"}
    assert set(PAPER_ENTRIES) == entries
    assert {entry for entry, *_ in bench_paper.LEDGER} == entries

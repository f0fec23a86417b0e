"""Smoke tests that the example gallery keeps running end to end.

The heavier examples (the pruning study and the design-space sweep) are
exercised indirectly by the integration tests; here the quick ones are run
as-is so a regression in the public API surfaces immediately.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    """Execute an example script as __main__ and return its stdout."""
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart_runs_and_reports_speedups(self, capsys):
        output = run_example("quickstart.py", capsys)
        assert "TensorDash on alexnet" in output
        assert "Total" in output
        assert "energy efficiency" in output.lower()

    def test_pe_microbenchmark_reproduces_fig7(self, capsys):
        output = run_example("pe_microbenchmark.py", capsys)
        assert "TensorDash: 2 cycles" in output
        assert "lookaside" in output

    def test_all_examples_are_documented_in_readme(self):
        readme = (EXAMPLES_DIR.parent / "README.md").read_text()
        for script in EXAMPLES_DIR.glob("*.py"):
            assert script.name in readme, f"{script.name} missing from README examples table"

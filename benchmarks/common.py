"""Shared helpers for the benchmark scripts.

The engine microbenchmarks train a workload briefly before they time
anything; :func:`get_trace` keeps each trace for the life of the process.
:func:`engine_kwargs` resolves ``REPRO_CACHE_DIR`` for scripts that build
an engine, so repeated runs can load stored traces and skip
already-simulated layers.  ``bench_paper.py`` takes every trace from its
one engine instead.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

from repro.models.registry import trace_workload
from repro.training.tracing import TrainingTrace

#: Training length for :func:`get_trace`.
DEFAULT_EPOCHS = 3
DEFAULT_BATCHES_PER_EPOCH = 2
DEFAULT_BATCH_SIZE = 8


def engine_kwargs() -> Dict[str, object]:
    """Engine configuration for every harness runner, from the environment.

    Resolution goes through :func:`repro.engine.resolve_engine_options` —
    the same helper the CLI and :class:`repro.api.Session` use — so the
    ``REPRO_*`` precedence can never drift between entry points.
    """
    from repro.engine.options import resolve_engine_options

    return {"cache_dir": resolve_engine_options().cache_dir}


@lru_cache(maxsize=None)
def get_trace(model_name: str, epochs: int = DEFAULT_EPOCHS) -> TrainingTrace:
    """Train a workload briefly and return its operand traces (cached)."""
    return trace_workload(
        model_name,
        epochs=epochs,
        batches_per_epoch=DEFAULT_BATCHES_PER_EPOCH,
        batch_size=DEFAULT_BATCH_SIZE,
        seed=0,
    )


def print_header(title: str, paper_reference: str) -> None:
    """Banner identifying which paper figure/table a benchmark regenerates."""
    line = "=" * 78
    print(f"\n{line}\n{title}\n{paper_reference}\n{line}")

"""Training loop, synthetic datasets and operand-trace collection."""

from repro._lazy import lazy_exports

__all__ = [
    "SyntheticImageDataset",
    "SyntheticSequenceDataset",
    "SyntheticPairDataset",
    "LayerTrace",
    "EpochTrace",
    "TrainingTrace",
    "TraceCollector",
    "Trainer",
    "TrainingConfig",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.training.data": (
        "SyntheticImageDataset", "SyntheticSequenceDataset",
        "SyntheticPairDataset",
    ),
    "repro.training.tracing": (
        "LayerTrace", "EpochTrace", "TrainingTrace", "TraceCollector",
    ),
    "repro.training.trainer": ("Trainer", "TrainingConfig"),
})

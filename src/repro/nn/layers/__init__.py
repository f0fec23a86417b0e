"""Layer implementations for the numpy training substrate."""

from repro._lazy import lazy_exports

__all__ = [
    "Conv2D",
    "Linear",
    "ReLU",
    "BatchNorm2D",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "Flatten",
    "Concat",
    "Add",
    "Dropout",
    "Embedding",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.nn.layers.conv": ("Conv2D",),
    "repro.nn.layers.linear": ("Linear",),
    "repro.nn.layers.activation": ("ReLU",),
    "repro.nn.layers.normalization": ("BatchNorm2D",),
    "repro.nn.layers.pooling": ("MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"),
    "repro.nn.layers.shape": ("Flatten", "Concat", "Add"),
    "repro.nn.layers.dropout": ("Dropout",),
    "repro.nn.layers.embedding": ("Embedding",),
})

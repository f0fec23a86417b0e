"""Layer implementations for the numpy training substrate."""

from repro.nn.layers.conv import Conv2D
from repro.nn.layers.linear import Linear
from repro.nn.layers.activation import ReLU
from repro.nn.layers.normalization import BatchNorm2D
from repro.nn.layers.pooling import MaxPool2D, AvgPool2D, GlobalAvgPool2D
from repro.nn.layers.shape import Flatten, Concat, Add
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.embedding import Embedding

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

"""Layer implementations for the numpy training substrate."""

from repro.nn.layers.conv import Conv2D
from repro.nn.layers.linear import Linear
from repro.nn.layers.activation import ReLU, Sigmoid, Tanh, LeakyReLU
from repro.nn.layers.normalization import BatchNorm2D, BatchNorm1D, LayerNorm
from repro.nn.layers.pooling import MaxPool2D, AvgPool2D, GlobalAvgPool2D
from repro.nn.layers.shape import Flatten, Concat, Add
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.embedding import Embedding

__all__ = [
    "Conv2D",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "LeakyReLU",
    "BatchNorm2D",
    "BatchNorm1D",
    "LayerNorm",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "Flatten",
    "Concat",
    "Add",
    "Dropout",
    "Embedding",
]

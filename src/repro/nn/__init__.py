"""A small, from-scratch numpy neural-network training framework.

The framework exists to generate realistic operand sparsity traces
(activations, weights and gradients) for the TensorDash hardware model.  It
implements forward and backward passes for the layer types used by the
paper's model zoo: 2D convolutions, fully-connected layers, ReLU, batch
normalisation, pooling, dropout and embeddings.

Every layer caches the operands that participate in the three training
convolutions described in the paper:

* ``O = W * A``   (forward pass),
* ``GA = GO * W`` (input-gradient computation), and
* ``GW = GO * A`` (weight-gradient computation),

so that :mod:`repro.training.tracing` can snapshot them without re-running
the math.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.linear import Linear
from repro.nn.layers.activation import ReLU
from repro.nn.layers.normalization import BatchNorm2D
from repro.nn.layers.pooling import MaxPool2D, AvgPool2D, GlobalAvgPool2D
from repro.nn.layers.shape import Flatten, Concat, Add
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.embedding import Embedding
from repro.nn.model import Sequential, Graph
from repro.nn.losses import CrossEntropyLoss, softmax
from repro.nn.optim import SGD, MomentumSGD

__all__ = [
    "Module",
    "Parameter",
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
    "Sequential",
    "Graph",
    "CrossEntropyLoss",
    "softmax",
    "SGD",
    "MomentumSGD",
]

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

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.nn.module": ("Module", "Parameter"),
    "repro.nn.layers.conv": ("Conv2D",),
    "repro.nn.layers.linear": ("Linear",),
    "repro.nn.layers.activation": ("ReLU",),
    "repro.nn.layers.normalization": ("BatchNorm2D",),
    "repro.nn.layers.pooling": ("MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"),
    "repro.nn.layers.shape": ("Flatten", "Concat", "Add"),
    "repro.nn.layers.dropout": ("Dropout",),
    "repro.nn.layers.embedding": ("Embedding",),
    "repro.nn.model": ("Sequential", "Graph"),
    "repro.nn.losses": ("CrossEntropyLoss", "softmax"),
    "repro.nn.optim": ("SGD", "MomentumSGD"),
})

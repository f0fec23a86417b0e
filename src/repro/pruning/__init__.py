"""Pruning-during-training methods.

The paper evaluates two ResNet-50 variants trained with methods that prune
during training, both targeting 90% weight sparsity:

* ``resnet50_DS90`` — dynamic sparse reparameterization (Mostafa & Wang,
  ICML 2019): keep a fixed global weight budget, periodically prune the
  smallest-magnitude weights and regrow the freed budget at random
  positions.
* ``resnet50_SM90`` — sparse momentum (Dettmers & Zettlemoyer, 2019):
  prune by magnitude and regrow where the momentum magnitude is largest,
  redistributing the budget toward layers whose momentum indicates they
  need more capacity.

Both methods convert weights to zero during training, which TensorDash can
exploit on top of the naturally occurring activation/gradient sparsity.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DynamicSparseReparameterization",
    "SparseMomentumPruner",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.pruning.dynamic_sparse": ("DynamicSparseReparameterization",),
    "repro.pruning.sparse_momentum": ("SparseMomentumPruner",),
})

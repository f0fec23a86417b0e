"""Tests for the pruning-during-training methods."""

import numpy as np
import pytest

from repro.models import build_resnet50
from repro.nn import Linear, Sequential, ReLU
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import MomentumSGD
from repro.pruning import (
    DynamicSparseReparameterization,
    SparseMomentumPruner,
)
from repro.pruning.base import prunable_parameters


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        [Linear(32, 64, rng=rng), ReLU(), Linear(64, 32, rng=rng), ReLU(), Linear(32, 4, rng=rng)]
    )


def train_steps(model, pruner, steps=12, optimizer=None):
    rng = np.random.default_rng(1)
    loss = CrossEntropyLoss()
    optimizer = optimizer or MomentumSGD(model.parameters(), lr=0.05)
    if isinstance(pruner, SparseMomentumPruner):
        pruner.bind_optimizer(optimizer)
    for step in range(steps):
        x = rng.normal(size=(8, 32)).astype(np.float32)
        labels = rng.integers(0, 4, size=8)
        model.zero_grad()
        logits = model(x)
        loss(logits, labels)
        model.backward(loss.backward())
        optimizer.step()
        pruner(model, epoch=0, step=step)
    return model


class TestPrunableParameters:
    def test_selects_weight_matrices_only(self):
        model = small_model()
        parameters = prunable_parameters(model)
        assert len(parameters) == 3
        assert all(p.data.ndim == 2 for p in parameters)

    def test_conv_weights_are_prunable(self):
        model = build_resnet50()
        parameters = prunable_parameters(model)
        assert any(p.data.ndim == 4 for p in parameters)


class TestDynamicSparseReparameterization:
    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            DynamicSparseReparameterization(target_sparsity=1.0)

    def test_holds_target_sparsity_throughout(self):
        pruner = DynamicSparseReparameterization(target_sparsity=0.9, update_every=2)
        model = train_steps(small_model(), pruner, steps=12)
        assert pruner.weight_sparsity() == pytest.approx(0.9, abs=0.05)

    def test_topology_changes_over_time(self):
        """Prune-and-regrow must move connections, not just freeze a mask."""
        pruner = DynamicSparseReparameterization(target_sparsity=0.8, update_every=1, seed=3)
        model = small_model(seed=3)
        rng = np.random.default_rng(2)
        loss = CrossEntropyLoss()
        optimizer = MomentumSGD(model.parameters(), lr=0.05)

        def run_steps(n):
            for step in range(n):
                x = rng.normal(size=(8, 32)).astype(np.float32)
                labels = rng.integers(0, 4, size=8)
                model.zero_grad()
                loss(model(x), labels)
                model.backward(loss.backward())
                optimizer.step()
                pruner(model, epoch=0, step=step)

        run_steps(3)
        masks_before = {k: m.copy() for k, m in pruner.masks.items()}
        run_steps(5)
        changed = any(
            not np.array_equal(masks_before[k], pruner.masks[k]) for k in masks_before
        )
        assert changed

    def test_training_still_reduces_loss_under_pruning(self):
        pruner = DynamicSparseReparameterization(target_sparsity=0.5, update_every=4)
        model = small_model(seed=5)
        rng = np.random.default_rng(5)
        loss = CrossEntropyLoss()
        optimizer = MomentumSGD(model.parameters(), lr=0.05)
        x = rng.normal(size=(32, 32)).astype(np.float32)
        labels = rng.integers(0, 4, size=32)
        losses = []
        for step in range(30):
            model.zero_grad()
            losses.append(loss(model(x), labels))
            model.backward(loss.backward())
            optimizer.step()
            pruner(model, epoch=0, step=step)
        assert losses[-1] < losses[0]


class TestSparseMomentum:
    def test_holds_target_sparsity(self):
        model = small_model(seed=7)
        optimizer = MomentumSGD(model.parameters(), lr=0.05)
        pruner = SparseMomentumPruner(target_sparsity=0.9, update_every=2)
        train_steps(model, pruner, steps=12, optimizer=optimizer)
        assert pruner.weight_sparsity() == pytest.approx(0.9, abs=0.05)

    def test_regrowth_follows_momentum(self):
        """Regrown positions should be those with the largest momentum."""
        model = small_model(seed=8)
        optimizer = MomentumSGD(model.parameters(), lr=0.05)
        pruner = SparseMomentumPruner(target_sparsity=0.5, update_every=1, seed=8)
        pruner.bind_optimizer(optimizer)
        train_steps(model, pruner, steps=6, optimizer=optimizer)
        assert pruner.weight_sparsity() == pytest.approx(0.5, abs=0.1)

    def test_works_without_momentum_optimizer(self):
        pruner = SparseMomentumPruner(target_sparsity=0.6, update_every=2)
        model = train_steps(small_model(seed=9), pruner, steps=8,
                            optimizer=MomentumSGD(small_model(seed=9).parameters(), lr=0.01))
        assert 0.0 < pruner.weight_sparsity() <= 0.7


class TestPrunedModelSparsityPropagation:
    def test_pruned_resnet_has_sparse_weights(self):
        """The resnet50_DS90 workload: weights end up ~90% zero."""
        model = build_resnet50()
        optimizer = MomentumSGD(model.parameters(), lr=0.01)
        pruner = DynamicSparseReparameterization(target_sparsity=0.9, update_every=1)
        rng = np.random.default_rng(10)
        loss = CrossEntropyLoss()
        for step in range(2):
            x = np.abs(rng.normal(size=(2, 3, 32, 32))).astype(np.float32)
            labels = rng.integers(0, 10, size=2)
            model.zero_grad()
            loss(model(x), labels)
            model.backward(loss.backward())
            optimizer.step()
            pruner(model, epoch=0, step=step)
        zeros = sum(int(np.count_nonzero(p.data == 0)) for p in prunable_parameters(model))
        total = sum(p.size for p in prunable_parameters(model))
        assert zeros / total > 0.8

"""Tests for synthetic datasets, the trainer and operand tracing."""

import numpy as np
import pytest

from repro.engine.cache import trace_fingerprint
from repro.models import build_alexnet, build_gcn
from repro.models.registry import (
    DEFAULT_LEARNING_RATE,
    build_dataset,
    build_model,
)
from repro.nn import functional as F
from repro.nn.layers.activation import ReLU
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.normalization import BatchNorm2D
from repro.nn.optim import MomentumSGD
from repro.training import (
    SyntheticImageDataset,
    SyntheticPairDataset,
    SyntheticSequenceDataset,
    TraceCollector,
    Trainer,
    TrainingConfig,
)
from tests.test_nn_functional import reference_col2im, reference_im2col
from tests.test_nn_layers import ReferenceReLU
from tests.test_nn_normalization_pooling import ReferenceBatchNorm2D


class TestSyntheticDatasets:
    def test_image_batch_shapes_and_nonnegativity(self):
        dataset = SyntheticImageDataset(num_classes=5, channels=3, size=16)
        images, labels = dataset.sample_batch(8)
        assert images.shape == (8, 3, 16, 16)
        assert labels.shape == (8,)
        assert np.all(images >= 0)
        assert np.all(labels < 5)

    def test_image_dataset_is_class_conditional(self):
        dataset = SyntheticImageDataset(num_classes=2, size=8, seed=0)
        images, labels = dataset.sample_batch(256)
        class0 = images[labels == 0].mean(axis=0)
        class1 = images[labels == 1].mean(axis=0)
        assert not np.allclose(class0, class1, atol=0.05)

    def test_image_batches_iterator(self):
        dataset = SyntheticImageDataset()
        batches = list(dataset.batches(batch_size=4, num_batches=3))
        assert len(batches) == 3

    def test_sequence_batch_shapes(self):
        dataset = SyntheticSequenceDataset(vocab_size=100, sequence_length=12, num_classes=4)
        tokens, labels = dataset.sample_batch(6)
        assert tokens.shape == (6, 12)
        assert np.all(tokens < 100)
        assert np.all(labels < 4)

    def test_sequence_vocabulary_is_skewed(self):
        dataset = SyntheticSequenceDataset(vocab_size=50, sequence_length=100)
        tokens, _ = dataset.sample_batch(64)
        counts = np.bincount(tokens.reshape(-1), minlength=50)
        assert counts[0] > counts[25]

    def test_lm_batch_targets_are_shifted(self):
        dataset = SyntheticSequenceDataset(vocab_size=100, sequence_length=10)
        inputs, targets = dataset.sample_lm_batch(4)
        assert inputs.shape == targets.shape == (4, 10)

    def test_pair_dataset(self):
        dataset = SyntheticPairDataset(vocab_size=64, sequence_length=8)
        premises, hypotheses, labels = dataset.sample_batch(4)
        assert premises.shape == hypotheses.shape == (4, 8)
        assert np.all(labels < 3)

    def test_dataset_len(self):
        assert len(SyntheticImageDataset(num_classes=10, samples_per_class=64)) == 640


class TestTraceCollector:
    def _traced_alexnet(self):
        model = build_alexnet()
        from repro.nn.losses import CrossEntropyLoss

        x = np.abs(np.random.default_rng(0).normal(size=(4, 3, 32, 32))).astype(np.float32)
        loss = CrossEntropyLoss()
        logits = model(x)
        loss(logits, np.array([0, 1, 2, 3]))
        model.backward(loss.backward())
        return model

    def test_collects_every_traceable_layer(self):
        model = self._traced_alexnet()
        trace = TraceCollector().collect(model, epoch=0)
        assert len(trace.layers) == len(model.traceable_modules())

    def test_masks_present_when_requested(self):
        model = self._traced_alexnet()
        trace = TraceCollector().collect(model, epoch=0)
        conv_trace = trace.layers[0]
        assert conv_trace.activation_mask is not None
        assert conv_trace.weight_mask is not None
        assert conv_trace.output_gradient_mask is not None

    def test_conv_layer_metadata(self):
        model = self._traced_alexnet()
        trace = TraceCollector().collect(model, epoch=0)
        conv_trace = trace.layers[0]
        assert conv_trace.layer_type == "conv"
        assert conv_trace.kernel == 3
        assert conv_trace.macs > 0

    def test_fc_layer_metadata(self):
        model = self._traced_alexnet()
        trace = TraceCollector().collect(model, epoch=0)
        fc_traces = [t for t in trace.layers if t.layer_type == "fc"]
        assert fc_traces
        assert all(t.kernel == 1 for t in fc_traces)

    def test_conv_batch_clipping(self):
        model = self._traced_alexnet()
        trace = TraceCollector(max_batch=2).collect(model, epoch=0)
        assert trace.layers[0].activation_mask.shape[0] == 2
        # FC operands keep the whole batch: it is WxG's reduction dimension.
        fc_traces = [t for t in trace.layers if t.layer_type == "fc"]
        assert fc_traces
        for fc in fc_traces:
            assert fc.activation_mask.shape[0] == 4
            assert fc.output_gradient_mask.shape[0] == 4

    def test_operand_sparsity_accessor(self):
        model = self._traced_alexnet()
        trace = TraceCollector().collect(model, epoch=0)
        layer = trace.layers[2]
        assert layer.operand_sparsity("AxW") == layer.activation_sparsity
        assert layer.operand_sparsity("AxG") == layer.gradient_sparsity
        assert layer.operand_sparsity("WxG") == max(
            layer.gradient_sparsity, layer.activation_sparsity
        )
        with pytest.raises(ValueError):
            layer.operand_sparsity("bogus")

    def test_epoch_mean_sparsity(self):
        model = self._traced_alexnet()
        trace = TraceCollector().collect(model, epoch=0)
        assert 0.0 <= trace.mean_sparsity("activations") <= 1.0
        assert 0.0 <= trace.mean_sparsity("gradients") <= 1.0


class TestTrainer:
    def test_training_produces_one_trace_per_epoch(self):
        model = build_alexnet(width_multiplier=0.5)
        dataset = SyntheticImageDataset(size=32)
        trainer = Trainer(
            model,
            MomentumSGD(model.parameters(), lr=0.01),
            config=TrainingConfig(epochs=3, batches_per_epoch=1, batch_size=4),
        )
        trace = trainer.train(dataset, model_name="alexnet")
        assert len(trace.epochs) == 3
        assert trace.model_name == "alexnet"
        assert len(trainer.epoch_stats) == 3

    def test_loss_decreases_over_training(self):
        model = build_alexnet(width_multiplier=0.5)
        dataset = SyntheticImageDataset(num_classes=4, size=32, seed=1)
        trainer = Trainer(
            model,
            MomentumSGD(model.parameters(), lr=0.005),
            config=TrainingConfig(epochs=6, batches_per_epoch=4, batch_size=8),
        )
        trainer.train(dataset, model_name="alexnet")
        final_loss = trainer.epoch_stats[-1].mean_loss
        assert np.isfinite(final_loss)
        assert final_loss < trainer.epoch_stats[0].mean_loss

    def test_pruning_hook_is_invoked(self):
        calls = []
        model = build_alexnet(width_multiplier=0.5)
        dataset = SyntheticImageDataset(size=32)
        trainer = Trainer(
            model,
            MomentumSGD(model.parameters(), lr=0.01),
            config=TrainingConfig(epochs=2, batches_per_epoch=3, batch_size=4),
            pruning_hook=lambda m, e, s: calls.append((e, s)),
        )
        trainer.train(dataset)
        assert len(calls) == 6

    def test_training_frees_im2col_columns_but_keeps_traced_operands(self):
        model = build_alexnet(width_multiplier=0.5)
        trainer = Trainer(
            model,
            MomentumSGD(model.parameters(), lr=0.01),
            config=TrainingConfig(epochs=1, batches_per_epoch=2, batch_size=4),
        )
        trainer.train(SyntheticImageDataset(size=32))
        convs = [m for m in model.traceable_modules() if isinstance(m, Conv2D)]
        assert convs
        for conv in convs:
            assert conv._cols is None, conv.name
            operands = conv.trace_operands()
            assert operands["activations"] is not None
            assert operands["output_gradients"] is not None

    def test_gcn_trainer_on_sequences(self):
        model = build_gcn(vocab_size=64, sequence_length=10, num_classes=64)
        dataset = SyntheticSequenceDataset(vocab_size=64, sequence_length=10, num_classes=64)
        trainer = Trainer(
            model,
            MomentumSGD(model.parameters(), lr=0.01),
            config=TrainingConfig(epochs=1, batches_per_epoch=2, batch_size=4),
        )
        trace = trainer.train(dataset, model_name="gcn")
        assert len(trace.epochs) == 1

    def test_training_trace_progress_accessors(self):
        model = build_alexnet(width_multiplier=0.5)
        dataset = SyntheticImageDataset(size=32)
        trainer = Trainer(
            model,
            MomentumSGD(model.parameters(), lr=0.01),
            config=TrainingConfig(epochs=4, batches_per_epoch=1, batch_size=4),
        )
        trace = trainer.train(dataset)
        assert trace.final_epoch().epoch == 3
        assert trace.epoch_at_progress(0.0).epoch == 0
        assert trace.epoch_at_progress(1.0).epoch == 3
        assert trace.epoch_at_progress(0.5).epoch in (1, 2)

    def test_final_loss_requires_training(self):
        model = build_alexnet(width_multiplier=0.5)
        trainer = Trainer(model, MomentumSGD(model.parameters(), lr=0.01))
        with pytest.raises(RuntimeError):
            trainer.final_loss()

    def test_non_finite_loss_fails_loudly_before_the_update(self):
        model = build_alexnet(width_multiplier=0.5)
        trainer = Trainer(
            model,
            MomentumSGD(model.parameters(), lr=1e6),
            config=TrainingConfig(epochs=2, batches_per_epoch=3, batch_size=4),
        )
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError) as raised:
                trainer.train(SyntheticImageDataset(size=32), model_name="alexnet")
        message = str(raised.value)
        assert message.startswith("alexnet: training diverged, loss is nan")
        assert "at epoch 0, step 1" in message
        # The failing step updated nothing and no epoch was recorded.
        assert trainer.epoch_stats == []
        assert all(p.grad is None for p in model.parameters())


#: Zoo models whose layers cover every rewritten kernel: strided and
#: padded convs with BN (resnet50), BN before ReLU and concatenation
#: (densenet121), fire modules (squeezenet), plain conv/fc (alexnet) and
#: an fc-only network (snli).
EXACTNESS_MODELS = ("resnet50", "densenet121", "squeezenet", "alexnet", "snli")


def _train_briefly(name):
    """Per-layer trace fingerprints and parameter bytes of 1 x 2 x 4 training."""
    model = build_model(name, seed=0)
    trainer = Trainer(
        model,
        MomentumSGD(model.parameters(), lr=DEFAULT_LEARNING_RATE),
        config=TrainingConfig(epochs=1, batches_per_epoch=2, batch_size=4),
    )
    trace = trainer.train(build_dataset(name, seed=0), model_name=name)
    fingerprints = {
        (epoch.epoch, layer.layer_name): trace_fingerprint(layer)
        for epoch in trace.epochs
        for layer in epoch.layers
    }
    parameters = {p.name: p.data.tobytes() for p in model.parameters()}
    return fingerprints, parameters


class TestExactKernels:
    def test_zoo_trains_bit_identically_with_the_reference_kernels(
        self, monkeypatch
    ):
        """The shipped kernels change no trace and no trained parameter.

        Both runs use the same GEMMs, so the comparison holds on any BLAS.
        """
        with monkeypatch.context() as patch:
            patch.setattr(F, "im2col", reference_im2col)
            patch.setattr(F, "col2im", reference_col2im)
            for cls, reference in ((ReLU, ReferenceReLU),
                                   (BatchNorm2D, ReferenceBatchNorm2D)):
                patch.setattr(cls, "forward", reference.forward)
                patch.setattr(cls, "backward", reference.backward)
            expected = {name: _train_briefly(name) for name in EXACTNESS_MODELS}
        for name in EXACTNESS_MODELS:
            fingerprints, parameters = _train_briefly(name)
            assert fingerprints == expected[name][0], name
            assert parameters == expected[name][1], name

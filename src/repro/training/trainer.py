"""Training loop with per-epoch operand tracing.

The trainer mirrors the paper's methodology: train for a number of epochs,
and for each epoch sample one batch whose operands (weights, input
activations, output gradients per layer) are traced for the accelerator
simulation.  Pruning-during-training methods plug in as a hook invoked
after every optimiser step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Tuple

import numpy as np

from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.training.tracing import TraceCollector, TrainingTrace


class BatchSampler(Protocol):
    """Anything that can produce (inputs, labels) training batches."""

    def sample_batch(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        ...


#: Samples kept per traced convolutional layer unless a caller raises
#: the cap (multi-device scaling does, so data-parallel shards balance).
#: The trace collector applies it; it is the only batch clip, so the
#: simulator schedules every sample that was traced.
DEFAULT_TRACE_MAX_BATCH = 4


@dataclass
class TrainingConfig:
    """Length and tracing of one training run.

    The learning rate belongs to the optimizer and the seed to the model
    and dataset builders; the trainer reads neither.
    """

    epochs: int = 5
    batches_per_epoch: int = 8
    batch_size: int = 8
    trace_max_batch: int = DEFAULT_TRACE_MAX_BATCH


@dataclass
class EpochStats:
    """Loss/accuracy bookkeeping for one epoch."""

    epoch: int
    mean_loss: float
    accuracy: float


class Trainer:
    """Runs training and collects per-epoch operand traces.

    Parameters
    ----------
    model:
        A module mapping a batch of inputs to logits.
    optimizer:
        Any :class:`repro.nn.optim.Optimizer` over the model's parameters.
    loss:
        Loss object with ``forward(logits, labels)`` and ``backward()``.
    config:
        Training hyperparameters.
    pruning_hook:
        Optional callable invoked as ``hook(model, epoch, step)`` after
        every optimiser step (the pruning-during-training methods).
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss: Optional[CrossEntropyLoss] = None,
        config: Optional[TrainingConfig] = None,
        pruning_hook: Optional[Callable[[Module, int, int], None]] = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.loss = loss or CrossEntropyLoss()
        self.config = config or TrainingConfig()
        self.pruning_hook = pruning_hook
        self.collector = TraceCollector(max_batch=self.config.trace_max_batch)
        self.epoch_stats: List[EpochStats] = []

    def _train_step(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        model_name: str,
        epoch: int,
        step: int,
    ) -> Tuple[float, float]:
        """One forward/backward/update step; returns (loss, accuracy).

        Raises :class:`FloatingPointError` on a non-finite loss, before
        anything is updated: a diverged run's NaNs pass through ReLU, so
        its traced masks would no longer mean operand sparsity.
        """
        self.model.zero_grad()
        logits = self.model.forward(inputs)
        loss_value = self.loss.forward(logits, labels)
        if not math.isfinite(loss_value):
            raise FloatingPointError(
                f"{model_name}: training diverged, loss is {loss_value} "
                f"at epoch {epoch}, step {step}"
            )
        grad = self.loss.backward()
        self.model.backward(grad)
        self.optimizer.step()
        predictions = logits.argmax(axis=-1)
        accuracy = float(np.mean(predictions == labels))
        return loss_value, accuracy

    def train(self, dataset: BatchSampler, model_name: str = "model") -> TrainingTrace:
        """Run the configured number of epochs and return the operand traces."""
        trace = TrainingTrace(model_name=model_name)
        self.model.train()
        step = 0
        for epoch in range(self.config.epochs):
            losses: List[float] = []
            accuracies: List[float] = []
            for batch_index in range(self.config.batches_per_epoch):
                inputs, labels = dataset.sample_batch(self.config.batch_size)
                loss_value, accuracy = self._train_step(
                    inputs, labels, model_name, epoch, step
                )
                losses.append(loss_value)
                accuracies.append(accuracy)
                if self.pruning_hook is not None:
                    self.pruning_hook(self.model, epoch, step)
                step += 1
            # The last batch of the epoch is the sampled (traced) batch; its
            # operands are still cached inside the layers.
            trace.epochs.append(self.collector.collect(self.model, epoch))
            self.epoch_stats.append(
                EpochStats(
                    epoch=epoch,
                    mean_loss=float(np.mean(losses)) if losses else 0.0,
                    accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
                )
            )
        return trace

    def final_loss(self) -> float:
        """Mean loss of the final epoch."""
        if not self.epoch_stats:
            raise RuntimeError("train() has not been run")
        return self.epoch_stats[-1].mean_loss

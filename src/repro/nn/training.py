"""Training loop with per-iteration history.

Reproduces the model-training phase of Algorithm 1 and produces exactly the
curves of Figure 4: training loss per iteration and test-set accuracy per
iteration, plus the wall-clock training time reported in Table III.

An *iteration* here is one pass over the training set in minibatches — how
the scikit-learn MLP the authors used counts its ``max_iter``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time

import numpy as np

from .network import MLP
from .optimizers import Optimizer, get_optimizer
from .preprocessing import minibatches

__all__ = ["History", "Trainer", "train"]


@dataclass
class History:
    """Per-iteration training record (Figure 4's raw data)."""

    loss: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    training_time_ms: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.loss)

    @property
    def final_loss(self) -> float:
        if not self.loss:
            raise RuntimeError("no iterations recorded")
        return self.loss[-1]

    @property
    def final_accuracy(self) -> float:
        if not self.test_accuracy:
            raise RuntimeError("no test evaluations recorded")
        return self.test_accuracy[-1]


class Trainer:
    """Couples a network with an optimizer and runs iterations."""

    def __init__(
        self,
        network: MLP,
        optimizer: str | Optimizer = "adam",
        *,
        batch_size: int = 64,
        seed: int | None = None,
        weight_decay: float = 0.0,
        obs=None,
        **optimizer_kwargs,
    ) -> None:
        self.network = network
        self.optimizer = get_optimizer(optimizer, **optimizer_kwargs)
        #: optional :class:`repro.obs.Observability`: per-epoch loss,
        #: test accuracy, learning rate, and wall-time are published as
        #: ``train.*`` series through the same registry the simulator uses
        self.obs = obs
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if weight_decay < 0 or weight_decay >= 1:
            raise ValueError("weight_decay must be in [0, 1)")
        self.batch_size = batch_size
        #: decoupled L2 decay applied to every parameter after each step
        #: (0 = the paper's unregularised setting)
        self.weight_decay = weight_decay
        self._rng = np.random.default_rng(seed)

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        *,
        iterations: int = 200,
        x_test: np.ndarray | None = None,
        y_test: np.ndarray | None = None,
        early_stop_loss: float | None = None,
    ) -> History:
        """Run ``iterations`` epochs; record loss (and test metrics if given).

        ``early_stop_loss`` stops once the epoch loss drops below it — used
        by the self-adapting retraining flow, not by the paper's fixed-200
        reproduction runs.
        """
        x_train = np.asarray(x_train, dtype=float)
        y_train = np.asarray(y_train)
        history = History()
        params = self.network.parameters()
        obs = self.obs
        if obs is not None:
            s_loss = obs.registry.series("train.loss")
            s_acc = obs.registry.series("train.test_accuracy")
            s_lr = obs.registry.series("train.lr")
            s_epoch_ms = obs.registry.series("train.epoch_ms")
            c_epochs = obs.registry.counter("train.epochs")
        start_s = time.perf_counter()
        epoch_start_s = start_s
        for epoch in range(iterations):
            epoch_loss = 0.0
            batches = 0
            for xb, yb in minibatches(
                x_train, y_train, self.batch_size, rng=self._rng
            ):
                epoch_loss += self.network.train_batch(xb, yb)
                self.optimizer.step(params, self.network.gradients())
                if self.weight_decay:
                    decay = 1.0 - self.weight_decay
                    for p in params:
                        p *= decay
                batches += 1
            history.loss.append(epoch_loss / max(1, batches))
            if obs is not None:
                now_s = time.perf_counter()
                s_loss.append(epoch, history.loss[-1])
                s_lr.append(epoch, self.optimizer.learning_rate)
                s_epoch_ms.append(epoch, (now_s - epoch_start_s) * 1e3)
                epoch_start_s = now_s
                c_epochs.inc()
            if x_test is not None and y_test is not None:
                test_loss, test_acc = self.network.evaluate(x_test, y_test)
                history.test_loss.append(test_loss)
                history.test_accuracy.append(test_acc)
                if obs is not None:
                    s_acc.append(epoch, test_acc)
            if early_stop_loss is not None and history.loss[-1] < early_stop_loss:
                break
        history.training_time_ms = (time.perf_counter() - start_s) * 1e3
        if obs is not None:
            obs.registry.gauge("train.time_ms").set(history.training_time_ms)
        return history


def train(
    network: MLP,
    x_train: np.ndarray,
    y_train: np.ndarray,
    *,
    optimizer: str | Optimizer = "adam",
    iterations: int = 200,
    batch_size: int = 64,
    x_test: np.ndarray | None = None,
    y_test: np.ndarray | None = None,
    seed: int | None = None,
    obs=None,
    **optimizer_kwargs,
) -> History:
    """Functional one-shot wrapper around :class:`Trainer`."""
    trainer = Trainer(
        network, optimizer, batch_size=batch_size, seed=seed, obs=obs,
        **optimizer_kwargs,
    )
    return trainer.fit(
        x_train,
        y_train,
        iterations=iterations,
        x_test=x_test,
        y_test=y_test,
    )

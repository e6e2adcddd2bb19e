"""Strategy learner (Section IV-C).

Couples the feature pipeline with the from-scratch MLP: standard-scale the
feature matrix, train a ``(2n+1) -> hidden -> |strategies|`` classifier on
the labelled dataset (7:3 split), and expose prediction over
:class:`~repro.core.features.FeatureVector` objects.

The trained bundle (scaler + network + space shape) serialises to a single
JSON file — the parameter blob the paper "sends to the FTL".
"""

from __future__ import annotations

from dataclasses import dataclass
import json
from pathlib import Path

from ..nn.network import MLP
from ..nn.preprocessing import StandardScaler, train_test_split
from ..nn.serialization import from_dict as network_from_dict
from ..nn.serialization import to_dict as network_to_dict
from ..nn.training import History, Trainer
from .features import FeatureVector
from .labeler import Dataset
from .strategies import Strategy, StrategySpace

__all__ = ["LearnerReport", "StrategyLearner"]


@dataclass(frozen=True)
class LearnerReport:
    """Table-III row: final loss, test accuracy, training time."""

    optimizer: str
    activation: str
    final_loss: float
    test_accuracy: float
    training_time_ms: float


class StrategyLearner:
    """Trainable mapping from workload features to allocation strategies."""

    def __init__(
        self,
        space: StrategySpace,
        *,
        hidden: int = 64,
        activation: str = "logistic",
        seed: int | None = None,
    ) -> None:
        self.space = space
        self.hidden = hidden
        self.activation = activation
        n_features = 1 + 2 * space.n_tenants
        self.network = MLP(
            [n_features, hidden, len(space)],
            hidden_activation=activation,
            seed=seed,
        )
        self.scaler = StandardScaler()
        self._trained = False

    # ------------------------------------------------------------------
    def train(
        self,
        dataset: Dataset,
        *,
        optimizer: str = "adam",
        iterations: int = 200,
        batch_size: int = 64,
        train_fraction: float = 0.7,
        seed: int | None = 0,
        **optimizer_kwargs,
    ) -> History:
        """Fit on a labelled dataset; returns the Figure-4 history."""
        if dataset.n_classes != len(self.space):
            raise ValueError(
                f"dataset has {dataset.n_classes} classes, space has "
                f"{len(self.space)}"
            )
        x_train, x_test, y_train, y_test = train_test_split(
            dataset.features, dataset.labels, train_fraction=train_fraction, seed=seed
        )
        x_train = self.scaler.fit_transform(x_train)
        x_test = self.scaler.transform(x_test)
        trainer = Trainer(
            self.network,
            optimizer,
            batch_size=batch_size,
            seed=seed,
            **optimizer_kwargs,
        )
        history = trainer.fit(
            x_train,
            y_train,
            iterations=iterations,
            x_test=x_test,
            y_test=y_test,
        )
        self._trained = True
        self._last_history = history
        self._last_optimizer = optimizer
        return history

    def report(self) -> LearnerReport:
        """Summarise the last training run as a Table-III row."""
        if not self._trained:
            raise RuntimeError("learner has not been trained")
        history = self._last_history
        return LearnerReport(
            optimizer=self._last_optimizer,
            activation=self.activation,
            final_loss=history.final_loss,
            test_accuracy=history.final_accuracy,
            training_time_ms=history.training_time_ms,
        )

    # ------------------------------------------------------------------
    def predict_index(self, features: FeatureVector) -> int:
        """Class index of the predicted best strategy."""
        if not self._trained:
            raise RuntimeError("learner has not been trained")
        x = self.scaler.transform(features.to_array()[None, :])
        return int(self.network.predict(x)[0])

    def predict(self, features: FeatureVector) -> Strategy:
        """The predicted best allocation strategy for ``features``."""
        return self.space[self.predict_index(features)]

    def accuracy(self, dataset: Dataset) -> float:
        """Fraction of dataset rows whose argmax matches the label."""
        if not self._trained:
            raise RuntimeError("learner has not been trained")
        x = self.scaler.transform(dataset.features)
        return float((self.network.predict(x) == dataset.labels).mean())

    def clone(self) -> "StrategyLearner":
        """Deep copy of this trained learner (network weights + scaler).

        The adaptive retraining flow fine-tunes the clone while the
        original keeps serving, so a rejected candidate leaves the live
        model untouched.
        """
        if not self._trained:
            raise RuntimeError("refusing to clone an untrained learner")
        copy = StrategyLearner(
            self.space, hidden=self.hidden, activation=self.activation
        )
        copy.network = network_from_dict(network_to_dict(self.network))
        copy.scaler = StandardScaler.from_state(self.scaler.state())
        copy._trained = True
        copy._last_history = History()
        copy._last_optimizer = "cloned"
        return copy

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist scaler + network + space shape (the FTL parameter blob)."""
        if not self._trained:
            raise RuntimeError("refusing to save an untrained learner")
        payload = {
            "format": "repro-learner-v1",
            "n_channels": self.space.n_channels,
            "n_tenants": self.space.n_tenants,
            "hidden": self.hidden,
            "activation": self.activation,
            "scaler": self.scaler.state(),
            "network": network_to_dict(self.network),
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "StrategyLearner":
        """Rebuild a learner from :meth:`save` output (inference-ready)."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") != "repro-learner-v1":
            raise ValueError(f"unsupported learner format {payload.get('format')!r}")
        space = StrategySpace(payload["n_channels"], payload["n_tenants"])
        learner = cls(
            space,
            hidden=payload["hidden"],
            activation=payload["activation"],
        )
        learner.network = network_from_dict(payload["network"])
        learner.scaler = StandardScaler.from_state(payload["scaler"])
        learner._trained = True
        learner._last_history = History()
        learner._last_optimizer = "loaded"
        return learner

"""Guarded incremental retraining from the keeper's own decision stream.

The offline learner is frozen at deployment; this module lets the
adaptive keeper refresh it **without ever trusting a fresh model
blindly**:

* a :class:`ReplayBuffer` harvests one :class:`ReplayWindow` per
  adaptation window — the observed feature vector, the keeper's
  :class:`~repro.core.labeler.WindowReplay` of the window's requests, the
  strategy that was actually deployed, and the realised mean latency;
* on a retrain trigger the :class:`RetrainGovernor` labels the buffered
  training windows on their replays with the same Algorithm-1 objective
  and argmin the offline labeler uses, simulating only the strategies
  whose cost floor can reach the winner's band
  (:meth:`~repro.core.labeler.WindowReplay.label`), fine-tunes a **clone**
  of the live learner on them, and then *shadow-validates* the candidate
  against the incumbent on held-back replay windows the candidate never
  trained on: each model predicts a strategy per window and the window's
  replay scores it.  The replays are the ones the keeper already scored
  its decisions on, so a (window, strategy) pair is simulated once;
* the candidate is **promoted** only when its held-back cost is no worse
  than the incumbent's (within ``promote_margin``) and its predictions
  are healthy; otherwise it is **rolled back** and the live model is
  untouched.

Everything is seeded and free of wall-clock reads, so two runs over the
same decision stream retrain identically; the keeper owns the
``keeper.retrains`` / ``keeper.promotions`` / ``keeper.rollbacks``
counters and logs the returned :class:`RetrainEvent` records.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..nn.training import Trainer
from .allocator import ChannelAllocator
from .features import FeatureVector
from .labeler import WindowReplay
from .learner import StrategyLearner

__all__ = [
    "ReplayWindow",
    "ReplayBuffer",
    "RetrainConfig",
    "RetrainEvent",
    "RetrainGovernor",
]


@dataclass
class ReplayWindow:
    """One adaptation window harvested from the live decision stream."""

    time_us: float
    features: FeatureVector
    #: label of the strategy that was live during the window
    deployed: str
    realised_mean_us: float | None
    #: fast-model replay of the window's requests; dropped once the
    #: window is labelled, since training needs only the label
    replay: WindowReplay | None
    #: best-strategy class index over the replay (labelled lazily at
    #: retrain time, then memoised)
    label: int | None = None


class ReplayBuffer:
    """Bounded FIFO of the most recent replay windows."""

    def __init__(self, capacity: int) -> None:
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        self._windows: deque[ReplayWindow] = deque(maxlen=capacity)

    def add(self, window: ReplayWindow) -> None:
        self._windows.append(window)

    def __len__(self) -> int:
        return len(self._windows)

    @property
    def windows(self) -> list[ReplayWindow]:
        return list(self._windows)

    def split(self, holdback: int) -> tuple[list[ReplayWindow], list[ReplayWindow]]:
        """(training windows, held-back windows); newest go to holdback."""
        windows = self.windows
        holdback = min(holdback, max(len(windows) - 1, 0))
        if holdback == 0:
            return windows, []
        return windows[:-holdback], windows[-holdback:]


@dataclass(frozen=True)
class RetrainConfig:
    """Tuning knobs of the guarded retraining flow."""

    #: replay-buffer capacity in windows
    capacity: int = 32
    #: newest windows held back from training for shadow validation
    holdback: int = 3
    #: minimum labelled training windows before an attempt is made
    min_train_windows: int = 5
    #: fine-tuning epochs over the replay dataset
    iterations: int = 40
    batch_size: int = 8
    #: minibatch-shuffle seed (training is deterministic given it)
    seed: int = 0
    #: also retrain every this many windows, drift or not (None = only
    #: on drift detections)
    interval_windows: int | None = None
    #: minimum windows between two attempts
    min_gap_windows: int = 3
    #: candidate must achieve held-back cost <= incumbent * (1 + margin)
    promote_margin: float = 0.0
    #: indifference band when picking sweep labels (mirrors the labeler)
    tie_epsilon: float = 1e-9
    #: test hook: corrupt the candidate after training (non-finite
    #: weights) so the shadow-validation rollback path is provable
    poison: bool = False

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ValueError("capacity must be >= 2")
        if self.holdback < 1:
            raise ValueError("holdback must be >= 1")
        if self.min_train_windows < 1:
            raise ValueError("min_train_windows must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.interval_windows is not None and self.interval_windows < 1:
            raise ValueError("interval_windows must be >= 1")
        if self.min_gap_windows < 0:
            raise ValueError("min_gap_windows must be non-negative")
        if self.promote_margin < 0:
            raise ValueError("promote_margin must be non-negative")
        if self.tie_epsilon < 0:
            raise ValueError("tie_epsilon must be non-negative")


@dataclass(frozen=True)
class RetrainEvent:
    """Outcome of one guarded retraining attempt."""

    time_us: float
    window_index: int
    train_windows: int
    holdback_windows: int
    #: mean held-back cost (read + write mean latency) per model;
    #: ``None`` when validation never ran (unhealthy candidate)
    candidate_cost_us: float | None
    incumbent_cost_us: float | None
    #: ``"promoted"`` or ``"rolled-back"``
    outcome: str
    reason: str

    @property
    def promoted(self) -> bool:
        return self.outcome == "promoted"

    def to_dict(self) -> dict:
        return {
            "time_us": self.time_us,
            "window_index": self.window_index,
            "train_windows": self.train_windows,
            "holdback_windows": self.holdback_windows,
            "candidate_cost_us": self.candidate_cost_us,
            "incumbent_cost_us": self.incumbent_cost_us,
            "outcome": self.outcome,
            "reason": self.reason,
        }


class RetrainGovernor:
    """Labels replay windows, trains candidates, and arbitrates promotion."""

    def __init__(self, retrain: RetrainConfig) -> None:
        self.retrain = retrain
        self._last_attempt_window: int | None = None

    # ------------------------------------------------------------------
    def due(self, window_index: int, drift_fired: bool) -> bool:
        """Whether an attempt should run at this adaptation window."""
        cfg = self.retrain
        if (
            self._last_attempt_window is not None
            and window_index - self._last_attempt_window < cfg.min_gap_windows
        ):
            return False
        if drift_fired:
            return True
        return (
            cfg.interval_windows is not None
            and (window_index + 1) % cfg.interval_windows == 0
        )

    # ------------------------------------------------------------------
    def _label_window(self, window: ReplayWindow, space) -> int:
        """Best strategy index for the window over every strategy."""
        if window.label is None:
            window.label = window.replay.label(space, self.retrain.tie_epsilon)
            window.replay = None
        return window.label

    def _model_cost_us(
        self, learner: StrategyLearner, windows: Sequence[ReplayWindow]
    ) -> float:
        """Mean held-back cost of deploying ``learner``'s predictions."""
        costs_us = (w.replay.cost_us(learner.predict(w.features)) for w in windows)
        return sum(costs_us) / len(windows)

    # ------------------------------------------------------------------
    def attempt(
        self,
        allocator: ChannelAllocator,
        buffer: ReplayBuffer,
        *,
        time_us: float,
        window_index: int,
    ) -> RetrainEvent | None:
        """One guarded retraining attempt; ``None`` when data is short.

        On promotion the allocator's live learner is swapped for the
        candidate; on rollback the live model is untouched — the only
        side effect is the returned event.
        """
        cfg = self.retrain
        train_windows, holdback = buffer.split(cfg.holdback)
        train_windows = [w for w in train_windows if w.label is not None or w.replay]
        holdback = [w for w in holdback if w.replay]
        if len(train_windows) < cfg.min_train_windows or not holdback:
            return None
        self._last_attempt_window = window_index

        incumbent = allocator.learner
        space = allocator.space
        labels = np.array(
            [self._label_window(w, space) for w in train_windows]
        )
        features = np.vstack([w.features.to_array() for w in train_windows])

        candidate = incumbent.clone()
        trainer = Trainer(
            candidate.network,
            "adam",
            batch_size=min(cfg.batch_size, len(train_windows)),
            seed=cfg.seed,
        )
        trainer.fit(
            candidate.scaler.transform(features), labels,
            iterations=cfg.iterations,
        )
        if cfg.poison:
            # Test hook: a catastrophically bad candidate (non-finite
            # weights) must be caught by the health probe below.
            for param in candidate.network.parameters():
                param.fill(np.nan)

        health = ChannelAllocator(candidate).prediction_health(
            holdback[0].features
        )
        if health is not None:
            return RetrainEvent(
                time_us=time_us,
                window_index=window_index,
                train_windows=len(train_windows),
                holdback_windows=len(holdback),
                candidate_cost_us=None,
                incumbent_cost_us=None,
                outcome="rolled-back",
                reason=f"unhealthy candidate: {health}",
            )

        candidate_cost_us = self._model_cost_us(candidate, holdback)
        incumbent_cost_us = self._model_cost_us(incumbent, holdback)
        if candidate_cost_us <= incumbent_cost_us * (1.0 + cfg.promote_margin):
            allocator.adopt(candidate)
            outcome, reason = "promoted", (
                f"held-back cost {candidate_cost_us:.1f}us <= "
                f"incumbent {incumbent_cost_us:.1f}us"
            )
        else:
            outcome, reason = "rolled-back", (
                f"held-back cost {candidate_cost_us:.1f}us > "
                f"incumbent {incumbent_cost_us:.1f}us"
            )
        return RetrainEvent(
            time_us=time_us,
            window_index=window_index,
            train_windows=len(train_windows),
            holdback_windows=len(holdback),
            candidate_cost_us=candidate_cost_us,
            incumbent_cost_us=incumbent_cost_us,
            outcome=outcome,
            reason=reason,
        )

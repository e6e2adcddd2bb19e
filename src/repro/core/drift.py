"""Workload-drift detection over the keeper's per-window signal stream.

The periodic keeper re-decides every collection window, but the model it
consults was trained offline: under workload drift (a migrating hotspot,
a tenant changing phase, a noisy neighbour ramping up) its predictions go
stale silently.  The decision log already carries the signal needed to
notice — the per-window feature vectors and the predicted-vs-realised
latency residuals — so this module watches both streams:

* **residual drift** — a Page–Hinkley test on the relative prediction
  residual ``(realised - predicted) / predicted``.  The cumulative
  deviation above the running mean (minus a tolerance :data:`RESIDUAL_DELTA`)
  is tracked against its running minimum; when the gap exceeds
  ``residual_threshold`` the model is systematically under-predicting
  and an alarm fires.
* **feature drift** — a windowed mean-shift test on the feature stream.
  The first ``feature_window`` windows after an anchor freeze a reference
  mean/std per dimension; the rolling mean of the last ``feature_window``
  windows is compared against it, normalised per dimension, and an alarm
  fires when any dimension shifts by more than :data:`FEATURE_THRESHOLD`
  reference deviations.

Both alarms **re-anchor** the detector (the post-drift distribution
becomes the new baseline) and share a cooldown so one drift episode is
reported once, not once per window.  The detector is pure computation —
no RNG, no clocks, no observability access — so two runs over the same
stream produce byte-identical event lists; the keeper owns the
``drift.*`` counters and ``drift_detected`` trace events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["DriftConfig", "DriftEvent", "DriftDetector"]

#: Page–Hinkley tolerance: residual excursions below this magnitude (in
#: relative-residual units) accumulate nothing
RESIDUAL_DELTA = 0.05
#: feature-drift alarm threshold in per-dimension reference deviations
FEATURE_THRESHOLD = 3.0
#: consecutive unhealthy drifted windows before the keeper degrades to
#: Shared, and consecutive healthy ones before it recovers (consumed by
#: :meth:`SSDKeeper.run_adaptive`, not here)
DEGRADE_AFTER = 3
#: a window is "unhealthy" when its relative residual exceeds this
#: (realised latency more than ``1 + UNHEALTHY_RESIDUAL`` times the
#: prediction); consumed by the keeper's degradation path
UNHEALTHY_RESIDUAL = 0.5


@dataclass(frozen=True)
class DriftConfig:
    """Tuning knobs of the per-window drift detector."""

    #: windows to observe after an anchor before any alarm may fire
    min_windows: int = 4
    #: Page–Hinkley alarm threshold on the cumulative excess
    residual_threshold: float = 0.6
    #: windows per block for the feature mean-shift comparison
    feature_window: int = 3
    #: windows after an alarm during which further alarms are suppressed
    cooldown_windows: int = 2

    def __post_init__(self) -> None:
        if self.min_windows < 1:
            raise ValueError("min_windows must be >= 1")
        if self.residual_threshold <= 0:
            raise ValueError("residual_threshold must be positive")
        if self.feature_window < 1:
            raise ValueError("feature_window must be >= 1")
        if self.cooldown_windows < 0:
            raise ValueError("cooldown_windows must be non-negative")


@dataclass(frozen=True)
class DriftEvent:
    """One detected drift episode (also emitted as a trace event)."""

    time_us: float
    window_index: int
    #: ``"residual"`` (Page–Hinkley) or ``"feature"`` (mean shift)
    kind: str
    #: the statistic that crossed (PH excess or max normalised shift)
    statistic: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "time_us": self.time_us,
            "window_index": self.window_index,
            "kind": self.kind,
            "statistic": self.statistic,
            "threshold": self.threshold,
        }


#: floor added to per-dimension reference deviations so near-constant
#: dimensions (e.g. a tenant's R/W characteristic) don't divide by ~0
_SCALE_FLOOR = 0.05


class DriftDetector:
    """Deterministic drift detector over (features, residual) windows."""

    def __init__(self, config: DriftConfig | None = None) -> None:
        self.config = config if config is not None else DriftConfig()
        #: total windows observed (never reset)
        self.windows = 0
        #: total alarms fired (never reset)
        self.detections = 0
        self.residual_alarms = 0
        self.feature_alarms = 0
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Re-anchor: the next windows define a fresh baseline."""
        cfg = self.config
        # Page–Hinkley state over the residual stream
        self._res_n = 0
        self._res_mean = 0.0
        self._res_cum = 0.0
        self._res_min = 0.0
        # feature mean-shift state
        self._ref_block: list[np.ndarray] = []
        self._ref_mean: np.ndarray | None = None
        self._ref_scale: np.ndarray | None = None
        self._recent: deque[np.ndarray] = deque(maxlen=cfg.feature_window)
        self._since_anchor = 0
        self._cooldown = 0

    # ------------------------------------------------------------------
    def _update_residual(self, residual: float) -> float:
        """Advance the Page–Hinkley statistic; returns the current excess."""
        self._res_n += 1
        self._res_mean += (residual - self._res_mean) / self._res_n
        self._res_cum += residual - self._res_mean - RESIDUAL_DELTA
        self._res_min = min(self._res_min, self._res_cum)
        return self._res_cum - self._res_min

    def _update_features(self, x: np.ndarray) -> float | None:
        """Advance the mean-shift blocks; returns the shift statistic
        once both the reference and the recent block are full."""
        cfg = self.config
        if self._ref_mean is None:
            self._ref_block.append(x)
            if len(self._ref_block) == cfg.feature_window:
                block = np.vstack(self._ref_block)
                self._ref_mean = block.mean(axis=0)
                self._ref_scale = block.std(axis=0) + _SCALE_FLOOR
                self._ref_block = []
            return None
        self._recent.append(x)
        if len(self._recent) < cfg.feature_window:
            return None
        recent_mean = np.vstack(list(self._recent)).mean(axis=0)
        shifts = np.abs(recent_mean - self._ref_mean) / self._ref_scale
        return float(shifts.max())

    # ------------------------------------------------------------------
    def update(
        self,
        time_us: float,
        features: np.ndarray,
        residual: float | None,
    ) -> list[DriftEvent]:
        """Feed one window; returns the drift events it triggered.

        ``features`` is the window's feature vector as an array;
        ``residual`` is the relative prediction residual of the strategy
        deployed during the window (``None`` when no prediction exists
        yet, e.g. the first window).
        """
        cfg = self.config
        self.windows += 1
        self._since_anchor += 1
        window_index = self.windows - 1

        ph_excess = (
            self._update_residual(float(residual)) if residual is not None else 0.0
        )
        shift = self._update_features(np.asarray(features, dtype=float))

        if self._cooldown > 0:
            self._cooldown -= 1
            return []
        if self._since_anchor < cfg.min_windows:
            return []

        events: list[DriftEvent] = []
        if residual is not None and ph_excess > cfg.residual_threshold:
            events.append(
                DriftEvent(
                    time_us=time_us,
                    window_index=window_index,
                    kind="residual",
                    statistic=ph_excess,
                    threshold=cfg.residual_threshold,
                )
            )
            self.residual_alarms += 1
        if shift is not None and shift > FEATURE_THRESHOLD:
            events.append(
                DriftEvent(
                    time_us=time_us,
                    window_index=window_index,
                    kind="feature",
                    statistic=shift,
                    threshold=FEATURE_THRESHOLD,
                )
            )
            self.feature_alarms += 1
        if events:
            self.detections += len(events)
            self.reset()
            self._cooldown = cfg.cooldown_windows
        return events

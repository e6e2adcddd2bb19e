"""Drift detector — Page–Hinkley residuals and feature mean shift."""

import numpy as np
import pytest

from repro.core import DriftConfig, DriftDetector, DriftEvent


def feed(detector, residuals, base=None):
    """Feed constant features with the given residual stream."""
    x = np.zeros(3) if base is None else np.asarray(base, dtype=float)
    events = []
    for i, residual in enumerate(residuals):
        events.extend(detector.update(float(i) * 1000.0, x, residual))
    return events


class TestConfigValidation:
    def test_defaults_are_valid(self):
        DriftConfig()

    @pytest.mark.parametrize("kwargs", [
        {"min_windows": 0},
        {"residual_threshold": 0.0},
        {"feature_window": 0},
        {"cooldown_windows": -1},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DriftConfig(**kwargs)


class TestResidualDrift:
    def test_stable_residuals_never_alarm(self):
        detector = DriftDetector(DriftConfig(min_windows=2))
        events = feed(detector, [0.01, -0.02, 0.0, 0.01, -0.01] * 5)
        assert events == []
        assert detector.detections == 0

    def test_sustained_underprediction_alarms(self):
        detector = DriftDetector(DriftConfig(min_windows=2))
        events = feed(detector, [0.0, 0.0, 0.8, 0.9, 0.8, 0.9])
        kinds = [e.kind for e in events]
        assert "residual" in kinds
        assert detector.residual_alarms >= 1

    def test_none_residuals_are_neutral(self):
        detector = DriftDetector(DriftConfig(min_windows=2))
        events = feed(detector, [None] * 10)
        assert events == []

    def test_event_carries_statistic_and_threshold(self):
        cfg = DriftConfig(min_windows=2, residual_threshold=0.4)
        detector = DriftDetector(cfg)
        events = feed(detector, [0.0, 0.0, 0.9, 0.9, 0.9])
        assert events
        event = events[0]
        assert event.statistic > event.threshold == 0.4
        round_tripped = event.to_dict()
        assert round_tripped["kind"] == "residual"
        assert round_tripped["window_index"] == event.window_index


class TestFeatureDrift:
    def test_mean_shift_alarms(self):
        cfg = DriftConfig(min_windows=2, feature_window=2)
        detector = DriftDetector(cfg)
        events = []
        for i in range(4):  # reference + recent fill at the old level
            events.extend(detector.update(i * 1000.0, np.zeros(3), 0.0))
        for i in range(4, 8):  # shifted regime
            events.extend(detector.update(i * 1000.0, np.full(3, 5.0), 0.0))
        assert any(e.kind == "feature" for e in events)
        assert detector.feature_alarms >= 1

    def test_constant_features_never_alarm(self):
        detector = DriftDetector(DriftConfig(min_windows=2, feature_window=2))
        events = feed(detector, [0.0] * 12, base=[1.0, 2.0, 3.0])
        assert [e for e in events if e.kind == "feature"] == []


class TestAnchoringAndCooldown:
    def test_alarm_reanchors_so_new_regime_is_baseline(self):
        cfg = DriftConfig(min_windows=2, feature_window=2,
                          cooldown_windows=0)
        detector = DriftDetector(cfg)
        events = []
        for i in range(4):
            events.extend(detector.update(i * 1000.0, np.zeros(3), 0.0))
        for i in range(4, 20):  # long stay in the new regime
            events.extend(detector.update(i * 1000.0, np.full(3, 5.0), 0.0))
        # one episode, not one alarm per post-shift window
        assert len([e for e in events if e.kind == "feature"]) <= 2

    def test_cooldown_suppresses_follow_on_alarms(self):
        cfg = DriftConfig(min_windows=1, residual_threshold=0.3,
                          cooldown_windows=3)
        detector = DriftDetector(cfg)
        feed(detector, [0.0, 0.9, 0.9])
        fired = detector.detections
        assert fired >= 1
        feed(detector, [0.9] * 2)  # inside cooldown: nothing may fire
        assert detector.detections == fired

    def test_reset_preserves_cumulative_counters(self):
        detector = DriftDetector(DriftConfig(min_windows=1,
                                             residual_threshold=0.3))
        feed(detector, [0.0, 0.9, 0.9, 0.9])
        assert detector.detections >= 1
        windows, detections = detector.windows, detector.detections
        detector.reset()
        assert detector.windows == windows
        assert detector.detections == detections


class TestDeterminism:
    def test_same_stream_same_events(self):
        cfg = DriftConfig(min_windows=2, feature_window=2)
        rng = np.random.default_rng(3)
        stream = [(rng.random(5), float(r)) for r in rng.normal(0.0, 0.4, 40)]
        runs = []
        for _ in range(2):
            detector = DriftDetector(cfg)
            events = []
            for i, (x, residual) in enumerate(stream):
                events.extend(detector.update(i * 1000.0, x, residual))
            runs.append([e.to_dict() for e in events])
        assert runs[0] == runs[1]

    def test_events_are_frozen(self):
        event = DriftEvent(time_us=1.0, window_index=0, kind="residual",
                           statistic=1.0, threshold=0.5)
        with pytest.raises(AttributeError):
            event.kind = "feature"

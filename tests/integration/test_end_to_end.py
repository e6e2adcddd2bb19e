"""End-to-end pipeline: label -> train -> allocate -> adapt online.

This is Algorithm 1 + Algorithm 2 composed on a micro scale: the whole
SSDKeeper lifecycle in one test module.
"""

import numpy as np
import pytest

from repro.core import (
    ChannelAllocator,
    LabelerConfig,
    PagePolicy,
    SSDKeeper,
    StrategyLearner,
    StrategySpace,
    generate_dataset,
)
from repro.ssd import SSDConfig
from repro.workloads import WorkloadSpec, synthesize_mix


@pytest.fixture(scope="module")
def pipeline():
    """Train a tiny model once for the whole module."""
    cfg = LabelerConfig(
        ssd=SSDConfig.small(),
        n_tenants=4,
        window_requests_max=400,
        window_s=0.02,
        replications=1,
    )
    space = StrategySpace(cfg.ssd.channels, cfg.n_tenants)
    dataset = generate_dataset(16, cfg, seed=7)
    learner = StrategyLearner(space, activation="logistic", seed=0)
    history = learner.train(dataset, optimizer="adam", iterations=40, seed=0)
    return cfg, learner, history, dataset


class TestPipeline:
    def test_training_converges(self, pipeline):
        _, _, history, _ = pipeline
        assert history.loss[-1] < history.loss[0]

    def test_dataset_features_are_nine_dimensional(self, pipeline):
        _, _, _, dataset = pipeline
        assert dataset.features.shape[1] == 9
        assert dataset.n_classes == 42

    def test_keeper_adapts_online(self, pipeline):
        cfg, learner, _, _ = pipeline
        keeper = SSDKeeper(
            ChannelAllocator(learner),
            cfg.ssd,
            collect_window_us=cfg.window_s * 1e6,
            intensity_quantum=cfg.intensity_quantum,
            page_policy=PagePolicy.HYBRID,
        )
        specs = [
            WorkloadSpec(
                name=f"t{i}",
                write_ratio=1.0 if i < 2 else 0.0,
                rate_rps=8000.0,
                footprint_pages=cfg.footprint_pages,
            )
            for i in range(4)
        ]
        mixed = synthesize_mix(specs, total_requests=800, seed=3)
        run = keeper.run(mixed.requests)
        assert run.strategy is not None
        assert run.result.requests == 800
        assert run.features.n_tenants == 4
        # Write-dominated tenants 0/1 were detected as such.
        assert run.features.characteristics[:2] == (0, 0)

    def test_adaptive_beats_worst_fixed_strategy(self, pipeline):
        """The learned allocation should never be the pathological choice."""
        cfg, learner, _, _ = pipeline
        allocator = ChannelAllocator(learner)
        keeper = SSDKeeper(
            allocator,
            cfg.ssd,
            collect_window_us=cfg.window_s * 1e6,
            intensity_quantum=cfg.intensity_quantum,
        )
        specs = [
            WorkloadSpec(
                name=f"t{i}",
                write_ratio=1.0 if i == 0 else 0.0,
                rate_rps=12000.0 if i == 0 else 3000.0,
                footprint_pages=cfg.footprint_pages,
            )
            for i in range(4)
        ]
        mixed = synthesize_mix(specs, total_requests=900, seed=5)
        adaptive = keeper.run(list(mixed.requests))
        fv = adaptive.features
        space = learner.space
        totals = []
        for strategy in space:
            result = keeper.baseline_run(list(mixed.requests), strategy, fv)
            totals.append(result.total_latency_us)
        worst = max(totals)
        assert adaptive.result.total_latency_us < worst

    def test_learner_roundtrip_preserves_keeper_decisions(self, pipeline, tmp_path):
        cfg, learner, _, _ = pipeline
        path = tmp_path / "model.json"
        learner.save(path)
        clone = StrategyLearner.load(path)
        rng = np.random.default_rng(0)
        from repro.core import FeatureVector

        for _ in range(10):
            fv = FeatureVector(
                int(rng.integers(0, 20)),
                tuple(int(rng.integers(0, 2)) for _ in range(4)),
                tuple(rng.dirichlet(np.ones(4))),
            )
            assert clone.predict_index(fv) == learner.predict_index(fv)

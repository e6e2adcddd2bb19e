"""SSDKeeper — the paper's contribution.

The pipeline, end to end::

    from repro.core import (
        LabelerConfig, StrategySpace, generate_dataset,
        StrategyLearner, ChannelAllocator, SSDKeeper,
    )

    space = StrategySpace(n_channels=8, n_tenants=4)      # 42 strategies
    cfg = LabelerConfig()
    dataset = generate_dataset(500, cfg, seed=1)          # Algorithm 1, data loop
    learner = StrategyLearner(space, activation="logistic")
    learner.train(dataset, optimizer="adam")              # Algorithm 1, training
    keeper = SSDKeeper(ChannelAllocator(learner), cfg.ssd,
                       collect_window_us=100_000,
                       intensity_quantum=cfg.intensity_quantum)
    run = keeper.run(trace)                               # Algorithm 2
"""

from .allocator import ChannelAllocator, OverheadReport, verified_allocate
from .drift import DriftConfig, DriftDetector, DriftEvent
from .evaluation import QualityReport, evaluate_learner, holdout_samples
from .features import N_INTENSITY_LEVELS, FeaturesCollector, FeatureVector, features_of_mix
from .hybrid import PagePolicy, page_modes_for
from .keeper import KeeperDecision, KeeperRun, PeriodicRun, SSDKeeper
from .online import (
    ReplayBuffer,
    ReplayWindow,
    RetrainConfig,
    RetrainEvent,
    RetrainGovernor,
)
from .labeler import (
    Dataset,
    LabeledSample,
    LabelerConfig,
    WindowReplay,
    generate_dataset,
    label_sample,
    random_specs,
    sweep_strategies,
)
from .learner import LearnerReport, StrategyLearner
from .strategies import Strategy, StrategyKind, StrategySpace, compositions, enumerate_strategies

__all__ = [
    "Strategy",
    "StrategyKind",
    "StrategySpace",
    "compositions",
    "enumerate_strategies",
    "N_INTENSITY_LEVELS",
    "FeatureVector",
    "FeaturesCollector",
    "features_of_mix",
    "PagePolicy",
    "page_modes_for",
    "Dataset",
    "LabeledSample",
    "LabelerConfig",
    "generate_dataset",
    "label_sample",
    "random_specs",
    "sweep_strategies",
    "WindowReplay",
    "QualityReport",
    "evaluate_learner",
    "holdout_samples",
    "LearnerReport",
    "StrategyLearner",
    "ChannelAllocator",
    "OverheadReport",
    "verified_allocate",
    "KeeperDecision",
    "KeeperRun",
    "PeriodicRun",
    "SSDKeeper",
    "DriftConfig",
    "DriftDetector",
    "DriftEvent",
    "ReplayBuffer",
    "ReplayWindow",
    "RetrainConfig",
    "RetrainEvent",
    "RetrainGovernor",
]

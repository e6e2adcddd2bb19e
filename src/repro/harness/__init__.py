"""Experiment harness: scales, caching, and per-figure entry points."""

from .ablations import (
    ablation_dataset_size,
    ablation_fastmodel,
    ablation_features,
    ablation_hybrid,
    ablation_model_size,
    ablation_scheduling,
)
from .cache import ArtifactCache, default_cache
from .experiments import (
    MIX_COMPOSITIONS,
    OPTIMIZER_VARIANTS,
    build_dataset,
    build_mixes,
    cached_learner_or_none,
    fig2_motivation,
    fig5_performance,
    fig6_strategy_map,
    labeler_config,
    tab2_workloads,
    tab5_allocations,
    train_all,
    trained_learner,
)
from .reporting import banner, format_series, format_table
from .scale import Scale

__all__ = [
    "Scale",
    "ArtifactCache",
    "default_cache",
    "banner",
    "format_series",
    "format_table",
    "MIX_COMPOSITIONS",
    "OPTIMIZER_VARIANTS",
    "build_dataset",
    "build_mixes",
    "fig2_motivation",
    "fig5_performance",
    "fig6_strategy_map",
    "labeler_config",
    "tab2_workloads",
    "tab5_allocations",
    "train_all",
    "trained_learner",
    "cached_learner_or_none",
    "ablation_dataset_size",
    "ablation_fastmodel",
    "ablation_features",
    "ablation_hybrid",
    "ablation_model_size",
    "ablation_scheduling",
]

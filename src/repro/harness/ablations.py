"""Ablation studies beyond the paper's figures.

These quantify the design choices DESIGN.md calls out:

* :func:`ablation_hybrid` — the paper's §V-C claim that hybrid page
  allocation adds ~2.1 % average overall improvement;
* :func:`ablation_fastmodel` — does the vectorised fast model rank
  strategies the way the exact event-driven simulator does?  (It justifies
  using the fast model for the 42-strategy label sweeps.)
* :func:`ablation_model_size` — hidden-layer width vs test accuracy (the
  paper fixes 64 neurons);
* :func:`ablation_features` — which of the three feature groups carries the
  signal (intensity level / R-W characteristics / proportions).
"""

from __future__ import annotations

import numpy as np

from ..core.allocator import ChannelAllocator
from ..core.features import features_of_mix
from ..core.hybrid import PagePolicy
from ..core.keeper import SSDKeeper
from ..core.labeler import LabelerConfig, objective_us, pick_label, random_specs, sweep_strategies
from ..core.learner import StrategyLearner
from ..core.strategies import StrategySpace
from ..nn.network import MLP
from ..nn.preprocessing import StandardScaler, train_test_split
from ..nn.training import Trainer
from ..workloads.mixer import synthesize_mix
from .cache import ArtifactCache, default_cache
from .experiments import build_dataset, build_mixes, labeler_config, trained_learner
from .scale import Scale

__all__ = [
    "ablation_hybrid",
    "ablation_fastmodel",
    "ablation_model_size",
    "ablation_features",
    "ablation_scheduling",
    "ablation_dataset_size",
]


# ----------------------------------------------------------------------
def ablation_hybrid(scale: Scale, *, cache: ArtifactCache | None = None) -> dict:
    """SSDKeeper with all-static vs hybrid vs all-dynamic page allocation."""
    cache = cache or default_cache()
    params = {"requests": scale.mix_requests, "samples": scale.dataset_samples,
              "iters": scale.train_iterations, "v": 6}
    return cache.get_or_build_json(
        "ablation-hybrid", params, build=lambda: _hybrid_build(scale, cache)
    )


def _hybrid_build(scale: Scale, cache: ArtifactCache) -> dict:
    cfg = labeler_config()
    learner = trained_learner(scale, cache=cache)
    mixes = build_mixes(scale)
    policies = [PagePolicy.ALL_STATIC, PagePolicy.HYBRID, PagePolicy.ALL_DYNAMIC]
    out: dict = {"mixes": {}, "policies": [p.value for p in policies]}
    for mix_name, mixed in mixes.items():
        row = {}
        for policy in policies:
            keeper = SSDKeeper(
                ChannelAllocator(learner),
                cfg.ssd,
                collect_window_us=cfg.window_s * 1e6,
                intensity_quantum=cfg.intensity_quantum,
                page_policy=policy,
            )
            run = keeper.run(mixed.requests)
            row[policy.value] = {
                "mean_total_us": run.result.mean_total_us,
                "total_latency_s": run.result.total_latency_us / 1e6,
                "strategy": run.strategy.label if run.strategy else "Shared",
            }
        out["mixes"][mix_name] = row
    # Headline: mean improvement of hybrid over all-static across mixes.
    gains = [
        1.0
        - row[PagePolicy.HYBRID.value]["total_latency_s"]
        / row[PagePolicy.ALL_STATIC.value]["total_latency_s"]
        for row in out["mixes"].values()
    ]
    out["hybrid_vs_static_mean_gain"] = float(np.mean(gains))
    return out


# ----------------------------------------------------------------------
def ablation_fastmodel(scale: Scale, *, cache: ArtifactCache | None = None) -> dict:
    """Strategy-ranking agreement between the fast model and the DES."""
    cache = cache or default_cache()
    params = {"mixes": scale.fidelity_mixes, "v": 6}
    return cache.get_or_build_json(
        "ablation-fastmodel", params, build=lambda: _fastmodel_build(scale)
    )


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (no scipy dependency in the hot path)."""
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = float(np.sqrt((ra * ra).sum() * (rb * rb).sum()))
    return float((ra * rb).sum() / denom) if denom else 1.0


def _fastmodel_build(scale: Scale) -> dict:
    cfg = labeler_config()
    space = StrategySpace()
    rng = np.random.default_rng(99)
    rows = []
    for i in range(scale.fidelity_mixes):
        specs, total = random_specs(cfg, rng)
        mixed = synthesize_mix(specs, total_requests=total, seed=1000 + i)
        features = features_of_mix(mixed, intensity_quantum=cfg.intensity_quantum)
        fast = np.array(
            [
                objective_us(r, cfg.objective)
                for r in sweep_strategies(mixed, features, space, cfg)
            ]
        )
        event_cfg = LabelerConfig(
            ssd=cfg.ssd,
            n_tenants=cfg.n_tenants,
            window_requests_max=cfg.window_requests_max,
            window_s=cfg.window_s,
            engine="event",
            page_policy=cfg.page_policy,
        )
        event = np.array(
            [
                objective_us(r, cfg.objective)
                for r in sweep_strategies(mixed, features, space, event_cfg)
            ]
        )
        fast_best = pick_label(fast, cfg.tie_epsilon)
        event_best = pick_label(event, cfg.tie_epsilon)
        # Regret of deploying the fast model's winner per the exact engine.
        regret = float(event[fast_best] / event.min())
        rows.append(
            {
                "spearman": _spearman(fast, event),
                "same_winner": bool(fast_best == event_best),
                "fast_winner": space[fast_best].label,
                "event_winner": space[event_best].label,
                "cross_regret": regret,
            }
        )
    return {
        "per_mix": rows,
        "mean_spearman": float(np.mean([r["spearman"] for r in rows])),
        "winner_agreement": float(np.mean([r["same_winner"] for r in rows])),
        "mean_cross_regret": float(np.mean([r["cross_regret"] for r in rows])),
    }


# ----------------------------------------------------------------------
#: hidden-layer widths of the model-size ablation (the paper's is 64)
_WIDTHS = (8, 32, 64, 128)


def ablation_model_size(scale: Scale, *, cache: ArtifactCache | None = None) -> dict:
    """Test accuracy as a function of hidden-layer width."""
    cache = cache or default_cache()
    params = {"samples": scale.dataset_samples, "iters": scale.train_iterations,
              "widths": list(_WIDTHS), "v": 6}
    return cache.get_or_build_json(
        "ablation-width", params, build=lambda: _width_build(scale, cache)
    )


def _width_build(scale: Scale, cache: ArtifactCache) -> dict:
    dataset = build_dataset(scale, cache=cache)
    space = StrategySpace()
    out = {}
    for width in _WIDTHS:
        learner = StrategyLearner(space, hidden=width, activation="logistic", seed=1)
        history = learner.train(
            dataset,
            optimizer="adam",
            learning_rate=0.02,
            iterations=scale.train_iterations,
            seed=1,
        )
        out[str(width)] = {
            "final_accuracy": history.final_accuracy,
            "final_loss": history.final_loss,
            "parameters": learner.network.n_parameters,
        }
    return out


# ----------------------------------------------------------------------
#: training-set prefixes of the learning curve, as fractions of the dataset
_FRACTIONS = (0.125, 0.25, 0.5, 1.0)


def ablation_dataset_size(scale: Scale, *, cache: ArtifactCache | None = None) -> dict:
    """Learning curve: test accuracy vs training-set size.

    The paper trains on 5,000 labelled mixes; this ablation re-trains the
    Adam-logistic learner on nested prefixes of the cached dataset and
    shows how accuracy converges with data — the scaling argument behind
    the reproduction's dataset-size choice.
    """
    cache = cache or default_cache()
    params = {"samples": scale.dataset_samples, "iters": scale.train_iterations,
              "fractions": list(_FRACTIONS), "v": 6}
    return cache.get_or_build_json(
        "ablation-datasize", params,
        build=lambda: _datasize_build(scale, cache),
    )


def _datasize_build(scale: Scale, cache: ArtifactCache) -> dict:
    from ..core.labeler import Dataset

    dataset = build_dataset(scale, cache=cache)
    space = StrategySpace()
    out = {}
    for fraction in _FRACTIONS:
        n = max(42, int(len(dataset) * fraction))
        subset = Dataset(
            features=dataset.features[:n],
            labels=dataset.labels[:n],
            n_classes=dataset.n_classes,
        )
        learner = StrategyLearner(space, activation="logistic", seed=1)
        history = learner.train(
            subset,
            optimizer="adam",
            learning_rate=0.02,
            iterations=scale.train_iterations,
            seed=1,
        )
        out[f"{fraction:.3f}"] = {
            "rows": n,
            "final_accuracy": history.final_accuracy,
            "final_loss": history.final_loss,
        }
    return out


# ----------------------------------------------------------------------
def ablation_scheduling(scale: Scale, *, cache: ArtifactCache | None = None) -> dict:
    """FIFO vs read-priority queue discipline (simulator design choice).

    SSDSim — and therefore this reproduction's default — serves host
    operations FIFO per resource; the paper's "reads have priority to
    respond" is the tR << tPROG service-time asymmetry.  This ablation
    quantifies what a genuinely preemptive read-priority queue would change:
    reads gain, writes pay, and the Shared-vs-isolated trade-off of
    Figure 2 weakens (reads no longer suffer behind queued writes).
    """
    cache = cache or default_cache()
    params = {"mixes": scale.fidelity_mixes, "v": 6}
    return cache.get_or_build_json(
        "ablation-scheduling", params, build=lambda: _scheduling_build(scale)
    )


def _scheduling_build(scale: Scale) -> dict:
    from ..ssd.simulator import SSDSimulator

    cfg = labeler_config()
    rng = np.random.default_rng(123)
    rows = []
    for i in range(max(3, scale.fidelity_mixes // 2)):
        specs, total = random_specs(cfg, rng, intensity_level=14)
        mixed = synthesize_mix(specs, total_requests=total, seed=500 + i)
        shared = {w: list(range(cfg.ssd.channels)) for w in range(cfg.n_tenants)}
        results = {}
        for name, read_priority in (("fifo", False), ("read-priority", True)):
            sim = SSDSimulator(cfg.ssd, shared, read_priority=read_priority)
            results[name] = sim.run(list(mixed.requests))
        rows.append(
            {
                "fifo_read_us": results["fifo"].read.mean_us,
                "prio_read_us": results["read-priority"].read.mean_us,
                "fifo_write_us": results["fifo"].write.mean_us,
                "prio_write_us": results["read-priority"].write.mean_us,
            }
        )
    return {
        "per_mix": rows,
        "mean_read_speedup": float(
            np.mean([r["fifo_read_us"] / max(r["prio_read_us"], 1e-9) for r in rows])
        ),
        "mean_write_slowdown": float(
            np.mean([r["prio_write_us"] / max(r["fifo_write_us"], 1e-9) for r in rows])
        ),
    }


# ----------------------------------------------------------------------
#: feature-group column slices for the 4-tenant 9-dim layout
_FEATURE_GROUPS = {
    "all": list(range(9)),
    "no-intensity": list(range(1, 9)),
    "no-characteristics": [0] + list(range(5, 9)),
    "no-proportions": list(range(0, 5)),
    "intensity-only": [0],
}


def ablation_features(scale: Scale, *, cache: ArtifactCache | None = None) -> dict:
    """Test accuracy with feature groups removed."""
    cache = cache or default_cache()
    params = {"samples": scale.dataset_samples, "iters": scale.train_iterations,
              "v": 6}
    return cache.get_or_build_json(
        "ablation-features", params, build=lambda: _features_build(scale, cache)
    )


def _features_build(scale: Scale, cache: ArtifactCache) -> dict:
    dataset = build_dataset(scale, cache=cache)
    out = {}
    for name, columns in _FEATURE_GROUPS.items():
        x = dataset.features[:, columns]
        x_train, x_test, y_train, y_test = train_test_split(
            x, dataset.labels, train_fraction=0.7, seed=1
        )
        scaler = StandardScaler()
        x_train = scaler.fit_transform(x_train)
        x_test = scaler.transform(x_test)
        network = MLP(
            [len(columns), 64, dataset.n_classes],
            hidden_activation="logistic",
            seed=1,
        )
        trainer = Trainer(network, "adam", learning_rate=0.02, seed=1)
        history = trainer.fit(
            x_train,
            y_train,
            iterations=scale.train_iterations,
            x_test=x_test,
            y_test=y_test,
        )
        out[name] = {
            "columns": columns,
            "final_accuracy": history.final_accuracy,
        }
    return out

"""Label generation (Algorithm 1, lines 3-8).

For each synthetic mixed workload, run **every** channel-allocation strategy
and record the one with the lowest total (read + write) response latency as
the label.  Repeated over thousands of random mixes this produces the
training set of Section V-B (the paper: 5,000 mixes x 42 strategies =
210,000 simulation records).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
import zlib

import numpy as np

from ..ssd.config import SSDConfig
from ..ssd.fastmodel import FastLatencyModel
from ..ssd.faults import FaultConfig
from ..ssd.metrics import SimulationResult
from ..ssd.simulator import simulate
from ..workloads.mixer import MixedWorkload, synthesize_mix
from ..workloads.spec import WorkloadSpec
from .features import N_INTENSITY_LEVELS, FeatureVector, features_of_mix
from .hybrid import PagePolicy, page_modes_for
from .strategies import Strategy, StrategySpace

__all__ = [
    "LabelerConfig",
    "LabeledSample",
    "Dataset",
    "sweep_strategies",
    "allocation",
    "WindowReplay",
    "objective_us",
    "pick_label",
    "best_strategy",
    "random_specs",
    "random_mix",
    "label_sample",
    "generate_dataset",
]

#: simulators a label sweep can run on: the vectorised fast model or the DES
_ENGINES = ("fast", "event")


@dataclass(frozen=True)
class LabelerConfig:
    """Knobs of the label-generation process.

    ``window_requests_max`` is the merged request count of a top-intensity
    window; the intensity quantum follows as ``window_requests_max / 20`` so
    the twenty feature levels tile the generated range.  ``window_s`` is the
    observation window in simulated seconds; the defaults put the top
    intensity levels near device saturation (where channel conflicts — and
    therefore the choice of allocation strategy — matter most, the regime of
    the paper's Figure 2), while low levels leave the device mostly idle.
    """

    ssd: SSDConfig = field(default_factory=SSDConfig.small)
    n_tenants: int = 4
    window_requests_max: int = 3000
    window_s: float = 0.05
    engine: str = "fast"
    page_policy: PagePolicy = PagePolicy.HYBRID
    #: independent trace replications averaged per label (argmin over the
    #: *mean* total latency), suppressing single-trace noise in the label
    replications: int = 3
    #: indifference band for the label argmin: among strategies within
    #: ``tie_epsilon`` of the minimum total latency, the earliest in the
    #: canonical order wins (Shared, Isolated, two-part, four-part).  Real
    #: sweeps are noisy estimates, so an exact argmin would scatter labels
    #: across statistically indistinguishable strategies; the band collapses
    #: those ties onto the simplest allocation, the one an operator would
    #: deploy.  0 restores the paper's literal argmin.
    tie_epsilon: float = 0.03
    #: vary request-shape nuisance parameters (size/sequentiality/skew) per
    #: sample.  The paper's synthetic recipe keeps them fixed and "mainly
    #: change[s] the read/write characteristics and read/write proportion";
    #: turning this on is the harder, noisier setting used by an ablation.
    vary_shape: bool = False
    #: per-tenant request-share grid.  The paper's own feature examples are
    #: quantised ([0.1, 0.2, 0.3, 0.4]; [0.4, 0.2, 0.2, 0.2]), so shares are
    #: drawn on a 0.05 grid by default; 0 draws continuous Dirichlet shares.
    share_grid: float = 0.05
    #: draw tenants as pure streams (write-dominated = all writes,
    #: read-dominated = all reads), as in the paper's motivation study.
    #: False draws each tenant's write ratio uniformly on the dominated side,
    #: which hides label-relevant state from the features (harder setting).
    pure_ratios: bool = True
    #: the latency objective minimised by the label:
    #: "mean-sum" — mean write latency + mean read latency, the paper's
    #: Figure-2(c) metric ("the sum of write response latency and read
    #: response latency"), which weights the read and write classes equally
    #: regardless of their counts; "total-sum" — count-weighted sum of all
    #: response latencies.
    objective: str = "mean-sum"

    def __post_init__(self) -> None:
        if self.n_tenants < 2:
            raise ValueError("need at least two tenants")
        if self.window_requests_max < N_INTENSITY_LEVELS:
            raise ValueError("window_requests_max must cover the level range")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.tie_epsilon < 0:
            raise ValueError("tie_epsilon must be non-negative")
        if self.share_grid < 0 or self.share_grid > 0.25:
            raise ValueError("share_grid must be in [0, 0.25]")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {sorted(_ENGINES)}")
        if self.objective not in ("mean-sum", "total-sum"):
            raise ValueError("objective must be 'mean-sum' or 'total-sum'")

    @property
    def intensity_quantum(self) -> float:
        return self.window_requests_max / N_INTENSITY_LEVELS

    @property
    def footprint_pages(self) -> int:
        """Per-tenant address footprint sized well inside the device."""
        per_tenant = self.ssd.logical_pages // self.n_tenants
        return max(1024, min(1 << 16, per_tenant // 2))


@dataclass
class LabeledSample:
    """One training record: features, winning strategy, full sweep results."""

    features: FeatureVector
    label: int
    total_latencies_us: list[float]

    @property
    def best_latency_us(self) -> float:
        return self.total_latencies_us[self.label]


@dataclass
class Dataset:
    """Feature matrix + integer labels for the strategy learner."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels must align")
        if self.labels.size and not (
            0 <= self.labels.min() and self.labels.max() < self.n_classes
        ):
            raise ValueError("label outside class range")

    def __len__(self) -> int:
        return len(self.labels)

    def save(self, path: str | Path) -> None:
        """Write the dataset as a compressed npz archive."""
        np.savez_compressed(
            path,
            features=self.features,
            labels=self.labels,
            n_classes=np.array([self.n_classes]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        """Read a dataset saved by :meth:`save`."""
        with np.load(path) as data:
            return cls(
                features=data["features"],
                labels=data["labels"],
                n_classes=int(data["n_classes"][0]),
            )


# ----------------------------------------------------------------------
def sweep_strategies(
    mixed: MixedWorkload,
    features: FeatureVector,
    space: StrategySpace,
    config: LabelerConfig,
) -> list[SimulationResult]:
    """Simulate ``mixed`` under every strategy in ``space``, in its order,
    drawing each strategy only once the previous one is simulated."""
    if config.engine == "event":
        ssd, policy = config.ssd, config.page_policy
        return [
            simulate(mixed.requests, ssd, *allocation(s, features, ssd.channels, policy))
            for s in space
        ]
    replay = WindowReplay(mixed.requests, features, config.ssd, page_policy=config.page_policy)
    return [replay.result(s) for s in space]


def allocation(
    strategy: Strategy, features: FeatureVector, n_channels: int, page_policy: PagePolicy
) -> tuple[dict[int, list[int]], dict]:
    """``(channel_sets, page_modes)`` deploying ``strategy`` for ``features``."""
    return (
        strategy.channel_sets(n_channels, features.write_dominated()),
        page_modes_for(page_policy, features),
    )


class WindowReplay:
    """One request window replayed on the fast model, scored per strategy.

    Every strategy runs on one :class:`~repro.ssd.fastmodel.FastLatencyModel`,
    so tenant groups that strategies share are simulated once, and each
    strategy's result is memoised.  The label sweep, verified allocation,
    the keeper's limiter and predictions, and retraining's labels and shadow
    validation all score a window through its replay.  ``len()`` is the
    window's request count.
    """

    def __init__(
        self,
        requests,
        features: FeatureVector,
        config: SSDConfig,
        *,
        page_policy: PagePolicy = PagePolicy.HYBRID,
        faults: FaultConfig | None = None,
    ) -> None:
        self.features = features
        self.config = config
        self.page_policy = page_policy
        self._model = FastLatencyModel(config, requests, faults=faults)
        self._results: dict[Strategy, SimulationResult] = {}

    def __len__(self) -> int:
        return self._model.n_req

    def result(self, strategy: Strategy) -> SimulationResult:
        """The window simulated with ``strategy`` deployed (memoised)."""
        result = self._results.get(strategy)
        if result is None:
            sets, modes = allocation(
                strategy, self.features, self.config.channels, self.page_policy
            )
            result = self._results[strategy] = self._model.run(sets, modes)
        return result

    def cost_us(self, strategy: Strategy) -> float:
        """Mean write + mean read latency with ``strategy`` deployed."""
        return objective_us(self.result(strategy), "mean-sum")


def objective_us(result: SimulationResult, objective: str) -> float:
    """The latency value a label minimises (see ``LabelerConfig.objective``)."""
    if objective == "mean-sum":
        return result.write.mean_us + result.read.mean_us
    if objective == "total-sum":
        return result.total_latency_us
    raise ValueError(f"unknown objective {objective!r}")


def pick_label(totals: "np.ndarray | list[float]", tie_epsilon: float) -> int:
    """Index of the winning strategy: earliest within the indifference band."""
    totals = np.asarray(totals, dtype=float)
    if totals.size == 0:
        raise ValueError("empty sweep")
    threshold = totals.min() * (1.0 + tie_epsilon)
    return int(np.flatnonzero(totals <= threshold)[0])


def best_strategy(
    mixed: MixedWorkload,
    features: FeatureVector,
    space: StrategySpace,
    config: LabelerConfig,
) -> LabeledSample:
    """Label one mixed workload from a single sweep (no replication)."""
    results = sweep_strategies(mixed, features, space, config)
    totals_us = [objective_us(r, config.objective) for r in results]
    label = pick_label(totals_us, config.tie_epsilon)
    return LabeledSample(features=features, label=label, total_latencies_us=totals_us)


# ----------------------------------------------------------------------
def random_specs(
    config: LabelerConfig,
    rng: np.random.Generator,
    *,
    intensity_level: int | None = None,
) -> tuple[list[WorkloadSpec], int]:
    """Random per-tenant specs per the paper's synthetic recipe.

    The paper "mainly change[s] the read/write characteristics and
    read/write proportion"; so by default only the per-tenant R/W
    characteristic, the per-tenant shares, and the overall intensity vary —
    request-shape parameters stay fixed unless ``config.vary_shape``.

    Returns ``(specs, total_requests)`` for the window.
    """
    n = config.n_tenants
    if intensity_level is None:
        intensity_level = int(rng.integers(0, N_INTENSITY_LEVELS))
    elif not 0 <= intensity_level < N_INTENSITY_LEVELS:
        raise ValueError("intensity_level outside the level range")
    # Total request count in the middle of the chosen level's bucket (pure
    # mode pins it to the bucket centre so features determine the workload).
    if config.pure_ratios:
        jitter = 0.5
    else:
        jitter = float(rng.uniform(0.25, 0.75))
    total = int(config.intensity_quantum * (intensity_level + jitter))
    total = max(total, 4 * n)
    shares = rng.dirichlet(np.ones(n) * 1.5)
    shares = np.maximum(shares, 0.02)
    shares /= shares.sum()
    if config.share_grid > 0:
        shares = _snap_to_grid(shares, config.share_grid)
    window_s = config.window_s
    specs = []
    for wid in range(n):
        write_dom = bool(rng.random() < 0.5)
        if config.pure_ratios:
            write_ratio = 1.0 if write_dom else 0.0
        else:
            write_ratio = (
                float(rng.uniform(0.55, 1.0))
                if write_dom
                else float(rng.uniform(0.0, 0.45))
            )
        if config.vary_shape:
            shape = dict(
                mean_request_pages=float(rng.uniform(1.0, 4.0)),
                sequential_fraction=float(rng.uniform(0.1, 0.6)),
                skew=float(rng.uniform(0.0, 1.0)),
            )
        else:
            shape = dict(
                mean_request_pages=2.0, sequential_fraction=0.3, skew=0.5
            )
        specs.append(
            WorkloadSpec(
                name=f"tenant{wid}",
                write_ratio=write_ratio,
                rate_rps=max(1.0, total * float(shares[wid]) / window_s),
                max_request_pages=16,
                footprint_pages=config.footprint_pages,
                **shape,
            )
        )
    return specs, total


def random_mix(
    config: LabelerConfig,
    rng: np.random.Generator,
    *,
    intensity_level: int | None = None,
) -> MixedWorkload:
    """One random synthetic mixed workload (one realisation of
    :func:`random_specs`)."""
    specs, total = random_specs(config, rng, intensity_level=intensity_level)
    return synthesize_mix(
        specs,
        total_requests=total,
        seed=int(rng.integers(0, 2**31 - 1)),
        name="random-mix",
    )


def _snap_to_grid(shares: np.ndarray, grid: float) -> np.ndarray:
    """Quantise shares to multiples of ``grid`` (each >= grid, sum == 1).

    Works in integer grid units with largest-remainder rounding so the
    result sums to exactly 1 whatever the input.
    """
    n = len(shares)
    units_total = int(round(1.0 / grid))
    if units_total < n:
        raise ValueError("grid too coarse for the tenant count")
    raw = shares * units_total
    units = np.maximum(1, np.floor(raw).astype(int))
    # Distribute the remaining units by largest fractional remainder.
    while units.sum() < units_total:
        remainders = raw - units
        units[int(np.argmax(remainders))] += 1
    while units.sum() > units_total:
        # Over-allocation can only come from the >=1 floor; shave the
        # largest allocation that stays positive.
        candidates = np.where(units > 1)[0]
        victim = candidates[int(np.argmax(units[candidates]))]
        units[victim] -= 1
    return units / units_total


def _spec_seed(specs: list[WorkloadSpec], total: int) -> int:
    """Deterministic trace seed derived from the spec parameters.

    Labeling must be a *function* of the workload description — the paper
    labels each synthetic workload by simulating that exact workload — so
    the trace realisations underlying a label are pinned to the specs.  Two
    draws of the same mix family therefore always get the same label, which
    keeps the learning target deterministic.
    """
    material = repr([(s.name, s.write_ratio, s.rate_rps, s.mean_request_pages,
                      s.sequential_fraction, s.skew) for s in specs]) + f"|{total}"
    return zlib.crc32(material.encode()) & 0x7FFFFFFF


def label_sample(
    config: LabelerConfig,
    rng: np.random.Generator,
    space: StrategySpace,
    *,
    intensity_level: int | None = None,
) -> LabeledSample:
    """Draw one random mix family and label it.

    ``config.replications`` trace realisations of the same specs are swept
    (with seeds derived deterministically from the specs); the label is the
    argmin of the *mean* total latency, which suppresses single-trace noise
    in the near-tie strategies.
    """
    specs, total = random_specs(config, rng, intensity_level=intensity_level)
    base_seed = _spec_seed(specs, total)
    sum_totals_us: np.ndarray | None = None
    features: FeatureVector | None = None
    for rep in range(config.replications):
        mixed = synthesize_mix(specs, total_requests=total, seed=base_seed + rep)
        if features is None:
            features = features_of_mix(
                mixed, intensity_quantum=config.intensity_quantum
            )
        results = sweep_strategies(mixed, features, space, config)
        totals_us = np.array([objective_us(r, config.objective) for r in results])
        sum_totals_us = (
            totals_us if sum_totals_us is None else sum_totals_us + totals_us
        )
    assert sum_totals_us is not None and features is not None
    mean_totals_us = sum_totals_us / config.replications
    return LabeledSample(
        features=features,
        label=pick_label(mean_totals_us, config.tie_epsilon),
        total_latencies_us=mean_totals_us.tolist(),
    )


def generate_dataset(
    n_samples: int,
    config: LabelerConfig | None = None,
    *,
    seed: int = 0,
    space: StrategySpace | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> Dataset:
    """Generate ``n_samples`` labelled mixes (Algorithm 1's data loop)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    config = config or LabelerConfig()
    space = space or StrategySpace(config.ssd.channels, config.n_tenants)
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    for i in range(n_samples):
        sample = label_sample(config, rng, space)
        rows.append(sample.features.to_array())
        labels.append(sample.label)
        if progress is not None:
            progress(i + 1, n_samples)
    return Dataset(
        features=np.vstack(rows),
        labels=np.array(labels),
        n_classes=len(space),
        meta={
            "engine": config.engine,
            "page_policy": config.page_policy.value,
            "window_requests_max": config.window_requests_max,
            "n_tenants": config.n_tenants,
            "seed": seed,
        },
    )

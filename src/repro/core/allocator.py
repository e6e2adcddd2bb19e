"""Channel allocator (Section IV-D) and verified allocation.

The inference-side component that lives in the FTL: takes the features
collector's vector, runs one forward pass of the trained network, and emits
the channel allocation to apply.  Also reproduces the paper's overhead
arithmetic — storage is 16 bytes per neuron (weight + bias), compute is
``sum(N_i * N_{i+1})`` float multiplies per decision — which for the 9-64-42
network is 1,696 bytes and 3,264 multiplies: negligible for an SSD
controller.

:func:`verified_allocate` is a hardening extension beyond the paper: the
network proposes its top-k strategies, the FTL replays the just-observed
request window through the fast latency model under each candidate, and
deploys the measured best.  A handful of millisecond-scale replays per
decision converts the model's rare catastrophic mispredictions (a 42-class
argmax can land on an overloading split) into near-optimal picks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureVector
from .labeler import WindowReplay
from .learner import StrategyLearner
from .strategies import Strategy

__all__ = ["OverheadReport", "ChannelAllocator", "verified_allocate"]


@dataclass(frozen=True)
class OverheadReport:
    """The Section IV-D cost model of running the allocator in the FTL."""

    storage_bytes: int
    multiplies_per_inference: int
    layer_sizes: tuple[int, ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        arch = "->".join(str(s) for s in self.layer_sizes)
        return (
            f"allocator overhead: {self.storage_bytes} B storage, "
            f"{self.multiplies_per_inference} multiplies per decision ({arch})"
        )


class ChannelAllocator:
    """Well-trained model + strategy vocabulary, deployed for inference."""

    def __init__(self, learner: StrategyLearner) -> None:
        self.learner = learner
        self.space = learner.space

    def allocate(self, features: FeatureVector) -> Strategy:
        """Pick the allocation strategy for the observed mixed workload."""
        if features.n_tenants != self.space.n_tenants:
            raise ValueError(
                f"features describe {features.n_tenants} tenants, allocator "
                f"is trained for {self.space.n_tenants}"
            )
        return self.learner.predict(features)

    def channel_sets(self, features: FeatureVector) -> dict[int, list[int]]:
        """Allocate and expand to concrete per-tenant channel sets."""
        strategy = self.allocate(features)
        return strategy.channel_sets(
            self.space.n_channels, features.write_dominated()
        )

    def adopt(self, learner: StrategyLearner) -> None:
        """Swap the live model for ``learner`` (a promoted candidate).

        The strategy vocabulary must be shape-identical — class indices
        are the network's output layout, so a different space would
        silently remap every prediction.
        """
        if (
            learner.space.n_channels != self.space.n_channels
            or learner.space.n_tenants != self.space.n_tenants
        ):
            raise ValueError(
                f"candidate is trained for {learner.space.n_channels} channels"
                f"/{learner.space.n_tenants} tenants, allocator serves "
                f"{self.space.n_channels}/{self.space.n_tenants}"
            )
        self.learner = learner

    def prediction_health(self, features: FeatureVector) -> str | None:
        """Sanity-check one inference; returns the problem or ``None`` if OK.

        The keeper calls this before trusting :meth:`allocate` so a degraded
        network (NaN weights after a botched checkpoint load, saturated
        scaler, out-of-range argmax) triggers graceful fallback instead of
        deploying garbage.  Pure probe: nothing is appended to the decision
        log.
        """
        x = features.to_array()
        if not np.all(np.isfinite(x)):
            return "non-finite feature vector"
        scaled = self.learner.scaler.transform(x[None, :])
        if not np.all(np.isfinite(scaled)):
            return "non-finite scaled features"
        logits = self.learner.network.forward(scaled)[0]
        if not np.all(np.isfinite(logits)):
            return "non-finite network output"
        index = int(np.argmax(logits))
        if not 0 <= index < len(self.space):
            return f"predicted class {index} outside strategy space"
        return None

    def top_k(self, features: FeatureVector, k: int) -> list[Strategy]:
        """The k most likely strategies by network logit, best first."""
        if k < 1:
            raise ValueError("k must be >= 1")
        x = self.learner.scaler.transform(features.to_array()[None, :])
        logits = self.learner.network.forward(x)[0]
        order = np.argsort(-logits)[: min(k, len(self.space))]
        return [self.space[int(i)] for i in order]

    def overhead_report(self) -> OverheadReport:
        """The paper's storage/compute cost estimate for this network."""
        net = self.learner.network
        return OverheadReport(
            storage_bytes=net.storage_bytes(),
            multiplies_per_inference=net.forward_multiplies(),
            layer_sizes=tuple(net.layer_sizes),
        )


def verified_allocate(
    allocator: ChannelAllocator,
    features: FeatureVector,
    replay: WindowReplay | None,
    *,
    top_k: int = 3,
) -> Strategy:
    """Pick among the network's top-k strategies by replaying the window.

    Each candidate is scored on ``replay``, the fast-model replay of the
    requests actually observed during the collection window; the first
    candidate with the lowest mean-read + mean-write latency wins.  An empty
    (or absent) replay leaves the network's argmax.
    """
    if not replay:
        return allocator.allocate(features)
    return min(allocator.top_k(features, top_k), key=replay.cost_us)

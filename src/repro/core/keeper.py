"""SSDKeeper online workflow (Algorithm 2).

One :class:`SSDKeeper` run plays the paper's Algorithm 2 against a trace:

1. **collect phase** (``t < T``): the device runs with the traditional
   *Shared* allocation while the features collector observes every
   submitted request;
2. **decide** (``t == T``): the collector's vector goes through the trained
   channel allocator, producing a strategy;
3. **apply** (``t > T``): the FTL switches to the chosen channel allocation
   and the hybrid page-allocation modes; data written before the switch
   stays where it is (reads keep resolving through the mapping table).

The switch happens *inside* the event-driven simulation via a scheduled
reallocation event, so phase-1 conflicts, in-flight requests across the
boundary, and residual old-channel traffic are all modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..ssd.config import SSDConfig
from ..ssd.faults import FaultConfig
from ..ssd.metrics import SimulationResult
from ..ssd.request import IORequest, OpType
from ..ssd.simulator import SSDSimulator
from .allocator import ChannelAllocator, verified_allocate
from .drift import DEGRADE_AFTER, UNHEALTHY_RESIDUAL, DriftConfig, DriftDetector, DriftEvent
from .features import FeaturesCollector, FeatureVector
from .hybrid import PagePolicy
from .labeler import WindowReplay, allocation
from .online import ReplayBuffer, ReplayWindow, RetrainConfig, RetrainEvent, RetrainGovernor
from .strategies import Strategy, StrategyKind

__all__ = ["KeeperDecision", "KeeperRun", "PeriodicRun", "SSDKeeper"]

#: graceful-degradation trigger: when the unhealthiest channel's observed
#: error rate reaches this fraction, the keeper stops trusting the model
#: and falls back (see :meth:`SSDKeeper._decide`)
_FALLBACK_ERROR_RATE = 0.5

#: the switch-rate limiter of adaptive runs: within this many windows of
#: the last switch a *different* healthy decision deploys only when its
#: fast-model win over the incumbent allocation reaches ``_SWITCH_MARGIN``
#: (relative) — hysteresis against allocation thrash
_SWITCH_GAP_WINDOWS = 2
_SWITCH_MARGIN = 0.1


@dataclass
class KeeperDecision:
    """Structured log record of one keeper decision (observability).

    ``predicted_mean_us`` is the fast-model estimate of the chosen
    strategy's mean request latency on the observed window, filled when
    the keeper replays the window's requests: one-shot runs with
    observability attached, and adaptive periodic runs
    (:meth:`SSDKeeper.run_adaptive`); ``realised_mean_us`` is the
    measured mean — per adaptation window in periodic runs, over the
    whole run for the one-shot workflow.
    """

    time_us: float
    features: FeatureVector
    strategy: str
    window_requests: int
    predicted_mean_us: float | None = None
    realised_mean_us: float | None = None
    #: non-``None`` when this decision was a graceful degradation (the model
    #: was bypassed); holds the trigger, e.g. ``"unhealthy prediction: ..."``
    fallback_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "time_us": self.time_us,
            "features": self.features.to_array().tolist(),
            "strategy": self.strategy,
            "window_requests": self.window_requests,
            "predicted_mean_us": self.predicted_mean_us,
            "realised_mean_us": self.realised_mean_us,
            "fallback_reason": self.fallback_reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KeeperDecision":
        """Rebuild a decision from :meth:`to_dict` output (round-trip)."""
        flat = data["features"]
        n_tenants = (len(flat) - 1) // 2
        return cls(
            time_us=data["time_us"],
            features=FeatureVector.from_array(flat, n_tenants),
            strategy=data["strategy"],
            window_requests=data["window_requests"],
            predicted_mean_us=data["predicted_mean_us"],
            realised_mean_us=data["realised_mean_us"],
            fallback_reason=data.get("fallback_reason"),
        )


@dataclass
class KeeperRun:
    """Outcome of one Algorithm-2 run."""

    result: SimulationResult
    features: FeatureVector | None
    strategy: Strategy | None
    switched_at_us: float | None
    #: set when the deployed strategy came from graceful degradation rather
    #: than the model (see :meth:`SSDKeeper._decide`)
    fallback_reason: str | None = None


@dataclass
class PeriodicRun:
    """Outcome of a periodic (multi-window) adaptation run.

    ``decisions`` holds one ``(time_us, features, strategy)`` triple per
    window in which the keeper re-decided; windows with no traffic are
    skipped (the previous allocation stays).  ``realised_us`` is aligned
    with ``decisions``: entry *i* is the measured mean latency of the
    window that followed decision *i* (``None`` when nothing completed
    in it) — populated whether or not observability is attached.  The
    ``drift_events`` / ``retrain_events`` / degradation fields are only
    populated by adaptive runs (:meth:`SSDKeeper.run_adaptive`).
    """

    result: SimulationResult
    decisions: list[tuple[float, FeatureVector, Strategy]]
    #: per-decision realised mean latency of the following window
    realised_us: list[float | None] = field(default_factory=list)
    drift_events: list[DriftEvent] = field(default_factory=list)
    retrain_events: list[RetrainEvent] = field(default_factory=list)
    #: healthy re-decisions the switch-rate limiter refused to deploy
    suppressed_switches: int = 0
    #: windows decided while degraded to Shared on persistent drift
    degraded_windows: int = 0

    @property
    def switches(self) -> int:
        return len(self.decisions)

    @property
    def retrains(self) -> int:
        return len(self.retrain_events)

    @property
    def promotions(self) -> int:
        return sum(1 for e in self.retrain_events if e.promoted)

    @property
    def rollbacks(self) -> int:
        return sum(1 for e in self.retrain_events if not e.promoted)

    def distinct_strategies(self) -> list[str]:
        seen: list[str] = []
        for _, _, strategy in self.decisions:
            if strategy.label not in seen:
                seen.append(strategy.label)
        return seen


class SSDKeeper:
    """Self-adapting channel allocation over one simulated device."""

    def __init__(
        self,
        allocator: ChannelAllocator,
        config: SSDConfig,
        *,
        collect_window_us: float,
        intensity_quantum: float,
        page_policy: PagePolicy = PagePolicy.HYBRID,
        record_latencies: bool = False,
        verify_top_k: int = 0,
        obs=None,
        faults: FaultConfig | None = None,
        sanitizer=None,
    ) -> None:
        if collect_window_us <= 0:
            raise ValueError("collect_window_us must be positive")
        if verify_top_k < 0:
            raise ValueError("verify_top_k must be non-negative")
        if config.channels != allocator.space.n_channels:
            raise ValueError(
                f"device has {config.channels} channels, allocator is trained "
                f"for {allocator.space.n_channels}"
            )
        self.allocator = allocator
        self.config = config
        self.collect_window_us = collect_window_us
        self.intensity_quantum = intensity_quantum
        self.page_policy = page_policy
        self.record_latencies = record_latencies
        #: >0 enables verified allocation: the network's top-k candidates
        #: are replayed on the observed window (fast model) and the
        #: measured best is deployed.  Extension beyond the paper.
        self.verify_top_k = verify_top_k
        #: optional :class:`repro.obs.Observability`: decisions are logged
        #: as :class:`KeeperDecision` records, a ``keeper_switch`` trace
        #: event marks each mid-run switch, and the underlying simulator
        #: inherits the same sink.
        self.obs = obs
        #: optional :class:`repro.ssd.faults.FaultConfig` applied to the
        #: underlying device (and to fast-model replays, as an expected-value
        #: derating)
        self.faults = faults
        #: optional :class:`repro.analysis.Sanitizer` threaded into every
        #: simulator this keeper constructs (runtime invariant checking)
        self.sanitizer = sanitizer

    # ------------------------------------------------------------------
    def _decide(
        self,
        sim: SSDSimulator,
        features: FeatureVector,
        replay: WindowReplay | None,
        last_good: Strategy | None = None,
    ) -> tuple[Strategy, str | None]:
        """Choose the strategy to deploy, degrading gracefully when needed.

        Two triggers bypass the model entirely: a channel whose observed
        error rate has reached ``_FALLBACK_ERROR_RATE`` (the window's
        features describe a device the training distribution never saw), and
        an unhealthy forward pass (NaN/out-of-range prediction).  Either way
        the keeper deploys ``last_good`` — the last strategy a healthy
        decision produced — or the traditional Shared allocation when there
        is none, and logs a ``keeper_fallback`` event.

        Returns ``(strategy, fallback_reason)``; ``fallback_reason`` is
        ``None`` on the normal path.
        """
        reason = None
        if sim.faults is not None:
            channel, rate = sim.faults.worst_channel()
            if channel >= 0 and rate >= _FALLBACK_ERROR_RATE:
                reason = (
                    f"channel {channel} error rate {rate:.3f} >= "
                    f"{_FALLBACK_ERROR_RATE:.3f}"
                )
        if reason is None:
            health = self.allocator.prediction_health(features)
            if health is not None:
                reason = f"unhealthy prediction: {health}"
        if reason is not None:
            strategy = (
                last_good if last_good is not None else Strategy(StrategyKind.SHARED)
            )
            self._log_fallback(sim, strategy, reason)
            return strategy, reason
        if self.verify_top_k:
            strategy = verified_allocate(
                self.allocator, features, replay, top_k=self.verify_top_k
            )
        else:
            strategy = self.allocator.allocate(features)
        return strategy, None

    def _collecting_device(self, on_submit) -> SSDSimulator:
        """The device in its collection phase: Shared channels for every
        tenant, traditional static placement."""
        channels = list(range(self.config.channels))
        return SSDSimulator(
            self.config,
            {wid: list(channels) for wid in range(self.allocator.space.n_tenants)},
            page_modes=None,
            record_latencies=self.record_latencies,
            on_submit=on_submit,
            obs=self.obs,
            faults=self.faults,
            sanitizer=self.sanitizer,
        )

    def _allocation(self, strategy: Strategy, features: FeatureVector):
        """``(channel_sets, page_modes)`` deploying ``strategy`` for ``features``."""
        return allocation(strategy, features, self.config.channels, self.page_policy)

    def _replay(self, window, features: FeatureVector) -> WindowReplay | None:
        """The window's one fast-model replay; ``None`` if it was not kept."""
        if not window:
            return None
        return WindowReplay(
            window, features, self.config,
            page_policy=self.page_policy, faults=self.faults,
        )

    def _log_fallback(self, sim: SSDSimulator, strategy: Strategy, reason: str) -> None:
        if self.obs is not None:
            self.obs.registry.counter("keeper.fallbacks").inc()
            self.obs.trace.emit(
                sim.loop.now, "keeper_fallback", "keeper", "keeper",
                args={"strategy": strategy.label, "reason": reason},
            )

    def _record_decision(
        self,
        sim: SSDSimulator,
        features: FeatureVector,
        strategy: Strategy,
        *,
        observed: int,
        predicted_us: float | None,
        fallback_reason: str | None,
        switched: bool,
        **switch_args,
    ) -> KeeperDecision:
        """Log one decision on ``obs``: the :class:`KeeperDecision` record
        and, when the allocation switched, the ``keeper.switches`` counter
        and a ``keeper_switch`` trace event stamped with the simulated time
        the reallocation took effect (== ``KeeperRun.switched_at_us``)."""
        obs = self.obs
        assert obs is not None  # every caller guards on self.obs
        record = KeeperDecision(
            time_us=sim.loop.now,
            features=features,
            strategy=strategy.label,
            window_requests=observed,
            predicted_mean_us=predicted_us,
            fallback_reason=fallback_reason,
        )
        obs.decisions.append(record)
        if switched:
            obs.registry.counter("keeper.switches").inc()
            obs.trace.emit(
                sim.loop.now, "keeper_switch", "keeper", "keeper",
                args={
                    "strategy": strategy.label,
                    "features": features.to_array().tolist(),
                    **switch_args,
                },
            )
        return record

    # ------------------------------------------------------------------
    def run(self, requests: Iterable[IORequest]) -> KeeperRun:
        """Play Algorithm 2 over ``requests``; returns latencies + decision."""
        collector = FeaturesCollector(
            self.allocator.space.n_tenants, intensity_quantum=self.intensity_quantum
        )
        window_end = self.collect_window_us
        observing = True
        window_requests: list[IORequest] = []

        keep_window = bool(self.verify_top_k) or self.obs is not None

        def on_submit(req: IORequest) -> None:
            if observing and req.arrival_us < window_end:
                collector.observe(req)
                if keep_window:
                    window_requests.append(req)

        sim = self._collecting_device(on_submit)
        outcome = KeeperRun(
            result=None, features=None, strategy=None, switched_at_us=None
        )  # result filled after sim.run

        def switch() -> None:
            nonlocal observing
            observing = False
            if collector.total_observed == 0:
                return  # nothing observed: stay on Shared
            features = collector.collect()
            replay = self._replay(window_requests, features)
            strategy, fallback_reason = self._decide(sim, features, replay)
            sim.controller.reallocate(*self._allocation(strategy, features))
            outcome.features, outcome.strategy = features, strategy
            outcome.switched_at_us = sim.loop.now
            outcome.fallback_reason = fallback_reason
            if self.obs is not None:
                predicted_us = replay.result(strategy).mean_total_us if replay else None
                self._record_decision(
                    sim, features, strategy,
                    observed=len(window_requests), predicted_us=predicted_us,
                    fallback_reason=fallback_reason, switched=True,
                    predicted_mean_us=predicted_us,
                )

        sim.loop.schedule(window_end, switch)  # repro-lint: disable=R004 (window_end is an absolute pre-run boundary)
        outcome.result = sim.run(requests)
        if self.obs is not None and self.obs.decisions:
            # run-level realised latency for the one-shot decision
            last = self.obs.decisions[-1]
            if last.realised_mean_us is None:
                last.realised_mean_us = outcome.result.mean_total_us
        return outcome

    # ------------------------------------------------------------------
    def run_periodic(self, requests: Sequence[IORequest]) -> PeriodicRun:
        """Self-adapt **every** collection window, not just once.

        An extension beyond the paper's one-shot Algorithm 2: at the end of
        each window of ``collect_window_us`` the keeper re-collects the
        window's features, re-runs the allocator, and switches the live FTL
        if the decision changed.  Data stays where it was written; only new
        placements follow each new allocation — exactly the semantics of the
        single switch, repeated.  Windows are scheduled up to one window
        past the last arrival; the simulation itself always runs to
        completion.
        """
        return _PeriodicLoop.start(self).play(requests)

    # ------------------------------------------------------------------
    def run_adaptive(
        self,
        requests: Sequence[IORequest],
        *,
        drift: DriftConfig | DriftDetector | None = None,
        retrain: RetrainConfig | None = None,
    ) -> PeriodicRun:
        """:meth:`run_periodic` with the full hardening layer armed.

        * drift detection — a :class:`DriftDetector` (built from ``drift``,
          default :class:`DriftConfig`, or passed pre-built) watches the
          per-window feature stream and the predicted-vs-realised
          residuals; detections surface as ``drift.*`` counters,
          ``drift_detected`` trace events, and
          :attr:`PeriodicRun.drift_events`.  Persistent drift with
          unhealthy residuals degrades the keeper to Shared (the
          graceful-degradation path of :meth:`_decide`) until a promoted
          retrain or recovered residuals lift it.
        * guarded retraining — ``retrain`` (default :class:`RetrainConfig`)
          sizes the replay buffer and tunes the retraining flow:
          candidates are fine-tuned on harvested windows, shadow-validated
          on held-back ones, and promoted or rolled back
          (``keeper.retrains`` / ``keeper.promotions`` /
          ``keeper.rollbacks``).
        * the switch-rate limiter — within ``_SWITCH_GAP_WINDOWS`` windows
          of the last switch a *different* healthy decision is deployed
          only when its fast-model win over the incumbent allocation
          reaches ``_SWITCH_MARGIN`` (relative); otherwise the switch is
          suppressed (``keeper.suppressed_switches``) and the incumbent
          stays.
        """
        detector = drift if isinstance(drift, DriftDetector) else DriftDetector(drift)
        retrain = retrain if retrain is not None else RetrainConfig()
        return _PeriodicLoop.start(
            self, detector, RetrainGovernor(retrain), ReplayBuffer(retrain.capacity)
        ).play(requests)

    # ------------------------------------------------------------------
    def baseline_run(
        self,
        requests: Sequence[IORequest],
        strategy: Strategy,
        features: FeatureVector,
    ) -> SimulationResult:
        """Run the same trace under one fixed strategy (no adaptation) with
        the device's default static placement.

        Used by the Figure-5 comparisons: the Shared / Isolated baselines.
        """
        channel_sets, modes = allocation(
            strategy, features, self.config.channels, PagePolicy.ALL_STATIC
        )
        sim = SSDSimulator(
            self.config,
            channel_sets,
            page_modes=modes,
            record_latencies=self.record_latencies,
            faults=self.faults,
            sanitizer=self.sanitizer,
        )
        return sim.run(requests)


@dataclass
class _WindowState:
    """What Algorithm 2's periodic loop carries from window to window; the
    transitions that decide what a window deploys are its methods."""

    #: cumulative latency totals at the previous window boundary
    total_us: float = 0.0
    count: int = 0
    #: the obs record and decision index awaiting a realised latency
    record: KeeperDecision | None = None
    pending: int | None = None
    #: fast-model estimate of the deployed strategy on the last window
    predicted_us: float | None = None
    #: adaptive windows seen; index of the last switch among them
    windows: int = 0
    last_switch: int | None = None
    unhealthy: int = 0
    healthy: int = 0
    drifted: bool = False
    degraded: bool = False
    deployed: Strategy | None = None
    #: the last strategy a healthy (non-fallback) decision produced
    last_good: Strategy | None = None

    def settle_us(self, acc, realised: list) -> float | None:
        """The ended window's realised mean latency, attributed to the
        decision awaiting it (``realised`` is aligned with decisions)."""
        reads = acc.op_totals(OpType.READ)
        writes = acc.op_totals(OpType.WRITE)
        total_us = reads.total_us + writes.total_us
        count = reads.count + writes.count
        delta_us, delta_n = total_us - self.total_us, count - self.count
        self.total_us, self.count = total_us, count
        realised_us = delta_us / delta_n if delta_n else None
        if realised_us is not None:
            if self.record is not None:
                self.record.realised_mean_us = realised_us
            if self.pending is not None:
                realised[self.pending] = realised_us
        self.record = self.pending = None
        return realised_us

    def residual(self, realised_us: float | None) -> float | None:
        """Relative residual of the deployed strategy's prediction."""
        if realised_us is None or not self.predicted_us:
            return None
        return (realised_us - self.predicted_us) / self.predicted_us

    def update_degradation(self, residual) -> bool:
        """Track the residual streaks; returns True when degradation arms.

        Degradation arms after :data:`DEGRADE_AFTER` consecutive unhealthy
        windows *following a drift detection* and disarms after the same
        number of healthy ones (or a promoted retrain, :meth:`promote`) —
        symmetric hysteresis so one noisy window flips nothing.
        """
        if residual is None:
            return False
        if residual > UNHEALTHY_RESIDUAL:
            self.unhealthy, self.healthy = self.unhealthy + 1, 0
        else:
            self.unhealthy, self.healthy = 0, self.healthy + 1
        if not self.degraded and self.drifted and self.unhealthy >= DEGRADE_AFTER:
            self.degraded = True
            return True
        if self.degraded and self.healthy >= DEGRADE_AFTER:
            self.degraded = self.drifted = False
        return False

    def promote(self) -> None:
        """A promoted retrain lifts degradation and clears the streaks."""
        self.degraded = self.drifted = False
        self.unhealthy = self.healthy = 0

    def suppresses(
        self, strategy: Strategy, fallback_reason: str | None, cost_us
    ) -> bool:
        """The switch-rate limiter: keep the incumbent instead of ``strategy``?

        Within ``_SWITCH_GAP_WINDOWS`` windows of the last switch a
        *different* healthy decision deploys only when its fast-model win
        over the incumbent (``cost_us(strategy)`` -> mean latency) reaches
        ``_SWITCH_MARGIN`` (relative).  A fallback is never suppressed.
        """
        if (
            fallback_reason is not None
            or self.last_switch is None
            or strategy.label == self.deployed.label
            or self.windows - 1 - self.last_switch >= _SWITCH_GAP_WINDOWS
        ):
            return False
        incumbent_us = cost_us(self.deployed)
        challenger_us = cost_us(strategy)
        win = (
            (incumbent_us - challenger_us) / incumbent_us
            if incumbent_us > 0 else 0.0
        )
        return win < _SWITCH_MARGIN


@dataclass
class _PeriodicLoop:
    """One periodic keeper run: at every window boundary :meth:`tick` plays
    Algorithm 2's collect → predict → allocate as the steps settle →
    collect → watch (adaptive runs: drift, degradation, retrain) → decide
    → limit (adaptive runs) → record → apply.  A plain run
    (:meth:`SSDKeeper.run_periodic`) has no detector, governor or buffer;
    an adaptive one (:meth:`SSDKeeper.run_adaptive`) has all three."""

    keeper: SSDKeeper
    sim: SSDSimulator
    collector: FeaturesCollector
    #: requests submitted since the last boundary (kept only when used)
    window_requests: list
    detector: DriftDetector | None
    governor: RetrainGovernor | None
    buffer: ReplayBuffer | None
    state: _WindowState = field(default_factory=_WindowState)
    run: PeriodicRun = field(
        default_factory=lambda: PeriodicRun(result=None, decisions=[])
    )

    @classmethod
    def start(cls, keeper: SSDKeeper, detector=None, governor=None, buffer=None):
        """A loop over a fresh device in its collection phase."""
        collector = FeaturesCollector(
            keeper.allocator.space.n_tenants,
            intensity_quantum=keeper.intensity_quantum,
        )
        window_requests: list[IORequest] = []

        def on_submit(req: IORequest) -> None:
            collector.observe(req)
            window_requests.append(req)

        keep_window = detector is not None or bool(keeper.verify_top_k)
        sim = keeper._collecting_device(
            on_submit if keep_window else collector.observe
        )
        return cls(
            keeper, sim, collector, window_requests, detector, governor, buffer
        )

    def play(self, requests: Sequence[IORequest]) -> PeriodicRun:
        """Tick at every window boundary up to one window past the last
        arrival, run the device to completion and settle the tail window."""
        requests = list(requests)
        if not requests:
            raise ValueError("a periodic keeper run needs a non-empty trace")
        end_us = max(r.arrival_us for r in requests)
        window_us = self.keeper.collect_window_us
        t = window_us
        while t <= end_us + window_us:
            self.sim.loop.schedule(t, self.tick)  # repro-lint: disable=R004 (absolute pre-run window boundary)
            t += window_us
        self.run.result = self.sim.run(requests)
        # Tail window: completions after the final adaptation tick would
        # otherwise leave the last decision's realised latency dangling.
        self.state.settle_us(self.sim.acc, self.run.realised_us)
        return self.run

    def tick(self) -> None:
        state = self.state
        realised_us = state.settle_us(self.sim.acc, self.run.realised_us)
        residual = state.residual(realised_us)
        collected = self.collect()
        if collected is None:
            return  # no traffic: the previous allocation stays
        observed, features, replay = collected
        adaptive = self.detector is not None
        if adaptive:
            self.watch(features, replay, realised_us, residual)
        strategy, fallback_reason = self.decide(features, replay)
        if adaptive:
            strategy = self.limit(strategy, fallback_reason, replay)
        switched = state.deployed is None or strategy.label != state.deployed.label
        self.record(observed, features, replay, strategy, fallback_reason, switched)
        if switched:
            self.apply(strategy, features)

    def collect(self):
        """``(observed, features, replay)``; ``None`` for an empty window."""
        collector, requests = self.collector, self.window_requests
        if collector.total_observed == 0:
            requests.clear()
            return None
        observed = collector.total_observed
        features = collector.collect()
        collector.reset()
        replay = self.keeper._replay(requests, features)
        requests.clear()
        return observed, features, replay

    def watch(self, features, replay, realised_us, residual) -> None:
        state, now, obs = self.state, self.sim.loop.now, self.keeper.obs
        widx = state.windows
        state.windows += 1
        if replay:
            self.buffer.add(ReplayWindow(
                time_us=now,
                features=features,
                deployed=state.deployed.label if state.deployed is not None else "Shared",
                realised_mean_us=realised_us,
                replay=replay,
            ))
        events = self.detector.update(now, features.to_array(), residual)
        if events:
            state.drifted = True
        self.run.drift_events.extend(events)
        if obs is not None:
            obs.registry.counter("drift.windows").inc()
            for event in events:
                obs.registry.counter("drift.detections").inc()
                obs.registry.counter(f"drift.{event.kind}_alarms").inc()
                obs.trace.emit(
                    now, "drift_detected", "keeper", "drift",
                    args=event.to_dict(),
                )
        if state.update_degradation(residual) and obs is not None:
            obs.registry.counter("keeper.degradations").inc()
        if self.governor.due(widx, bool(events) or state.degraded):
            self.retrain(widx)

    def retrain(self, widx: int) -> None:
        now, obs = self.sim.loop.now, self.keeper.obs
        event = self.governor.attempt(
            self.keeper.allocator, self.buffer, time_us=now, window_index=widx,
        )
        if event is None:
            return
        self.run.retrain_events.append(event)
        if obs is not None:
            obs.registry.counter("keeper.retrains").inc()
            obs.registry.counter(
                "keeper.promotions" if event.promoted else "keeper.rollbacks"
            ).inc()
            obs.trace.emit(
                now, "keeper_retrain", "keeper", "keeper", args=event.to_dict(),
            )
        if event.promoted:
            self.state.promote()
            self.detector.reset()

    def decide(self, features, replay) -> tuple[Strategy, str | None]:
        """Shared while degraded on persistent drift, else the keeper's
        (possibly fallback) decision."""
        state = self.state
        if state.degraded:
            self.run.degraded_windows += 1
            strategy = Strategy(StrategyKind.SHARED)
            reason = (
                "persistent drift: residual above "
                f"{UNHEALTHY_RESIDUAL:g} for "
                f"{DEGRADE_AFTER} consecutive windows"
            )
            self.keeper._log_fallback(self.sim, strategy, reason)
            return strategy, reason
        strategy, reason = self.keeper._decide(
            self.sim, features, replay, last_good=state.last_good
        )
        if reason is None:
            state.last_good = strategy
        return strategy, reason

    def limit(self, strategy, fallback_reason, replay) -> Strategy:
        if not replay or not self.state.suppresses(
            strategy, fallback_reason, lambda s: replay.result(s).mean_total_us
        ):
            return strategy
        self.run.suppressed_switches += 1
        if self.keeper.obs is not None:
            self.keeper.obs.registry.counter("keeper.suppressed_switches").inc()
        return self.state.deployed

    def record(self, observed, features, replay, strategy, fallback_reason, switched) -> None:
        run, state = self.run, self.state
        run.decisions.append((self.sim.loop.now, features, strategy))
        run.realised_us.append(None)
        state.pending = len(run.decisions) - 1
        state.predicted_us = (
            replay.result(strategy).mean_total_us
            if self.detector is not None and replay else None
        )
        if self.keeper.obs is not None:
            state.record = self.keeper._record_decision(
                self.sim, features, strategy,
                observed=observed, predicted_us=state.predicted_us,
                fallback_reason=fallback_reason, switched=switched,
            )

    def apply(self, strategy: Strategy, features) -> None:
        """Switch the live FTL; data already written stays where it is."""
        self.state.deployed = strategy
        self.state.last_switch = self.state.windows - 1
        self.sim.controller.reallocate(
            *self.keeper._allocation(strategy, features)
        )

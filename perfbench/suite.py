"""The benchmark's workloads: seeded inputs, one timed run each, checks.

Every workload splits one benchmark pass into a fixed list of *cases*
derived from the seed.  Each case is set up (inputs and fresh program
state, timed as set-up) and then run once (timed as the run).  The
simulated values a case produces are a pure function of the seed, so they
must repeat exactly in every pass, in every process and with tracing on.
See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import numpy as np

from repro.core import SSDKeeper, features, labeler
from repro.core.drift import DriftDetector
from repro.core.strategies import StrategySpace
from repro.harness import driftlab
from repro.obs import Observability
from repro.ssd.config import SSDConfig
from repro.ssd.faults import FaultConfig
from repro.ssd.metrics import OpStats
from repro.ssd.request import OpType
from repro.ssd.simulator import SSDSimulator
from repro.workloads import adversarial, mixer
from repro.workloads.spec import WorkloadSpec

#: attribution phases reported as ``obs.phase_fraction.<name>``
PHASES = ("queue_die", "queue_channel", "bus", "die", "gc_stall", "ecc_retry")

#: every simulated value a workload reports; the ones a workload does not
#: exercise stay 0
SIM_KEYS = (
    "sim_mean_read_us", "sim_mean_write_us", "request_success_fraction",
    "core.labeler.label_gain_vs_shared_pct",
    "core.keeper.windows", "core.keeper.switches",
    "core.keeper.suppressed_switches", "core.keeper.degraded_windows",
    "core.online.retrains", "core.online.promotions", "core.online.rollbacks",
    "core.online.promotion_ratio", "core.drift.detections",
    "ssd.simulator.requests", "ssd.simulator.subrequests",
    "ssd.simulator.reads", "ssd.simulator.read_p99_us",
    "ssd.simulator.backlog_us", "ssd.simulator.die_wait_us",
    "ssd.simulator.channel_wait_us", "ssd.engine.events",
    "ssd.ftl.gc.collections", "ssd.ftl.gc.pages_moved",
    "ssd.ftl.gc.write_amplification", "ssd.faults.read_retries",
    "ssd.faults.failed_reads", "ssd.faults.retired_blocks",
    "obs.trace_events", "obs.attribution_records",
    *(f"obs.phase_fraction.{p}" for p in PHASES),
)

#: simulated values that must not depend on whether observability is armed
BEHAVIOUR_KEYS = tuple(
    k for k in SIM_KEYS if not k.startswith("obs.")
)


class Workload:
    """Shared behaviour; subclasses define the cases, set-up, run and checks.

    ``run(state, lap)`` calls ``lap()`` between steps of its work whose
    inputs are fixed by the case; the benchmark times the reference kernel
    at some of those points (see ``reference.Stopwatch``), never inside a
    step.
    """

    #: whether set-up arms observability (``armed=False`` builds it bare)
    observed = False

    def sim_values(self, outcomes: list[dict], attempted: int) -> dict:
        """Every :data:`SIM_KEYS` value of one pass (0 where not exercised)."""
        values = dict.fromkeys(SIM_KEYS, 0)
        values.update(self.digest(outcomes, attempted))
        return values


def _case_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1_000))


def _pooled(stats: list[OpStats]) -> OpStats:
    out = OpStats()
    for s in stats:
        out = out.merged(s)
    return out


class _LappingSpace(StrategySpace):
    """The strategy space, marking each strategy's simulation with ``lap()``.

    ``sweep_strategies`` simulates the strategies in iteration order, so a
    sweep gets a step boundary per strategy without touching the program.
    """

    def __iter__(self):
        for strategy in super().__iter__():
            yield strategy
            self.lap()


class OfflineLabel(Workload):
    """Algorithm 1: label random four-tenant mixes on the fast model.

    Six mixes per pass, two each whose write-dominated tenants carry 25%,
    50% and 75% of the requests, all at intensity level 10 (1,575 requests
    per trace).  Which strategy wins a mix moves its label's mean read
    between about 90 and 200 us, so the pass averages six labels.  The fast model's cost per mix varied 0.6-1.4x over 24 mixes
    drawn without this constraint and falls as the write share rises, so
    fixing the level and the write share fixes most of the work per mix:
    the seed moves what is simulated, not how much.  Mixes with only
    readers or only writers have no allocation question and are left out.
    Algorithm 1 draws the level uniformly from 0-19, so its traces average
    1,500 requests (level 9.5); level 10 is the level nearest that mean
    from above.
    """

    name = "offline_label"
    LEVEL = 10
    WRITE_SHARES = (0.25, 0.5, 0.75)
    MIXES_PER_SHARE = 2

    def __init__(self) -> None:
        self.config = labeler.LabelerConfig()

    def cases(self, seed: int) -> list:
        """Per write share, the first of the seed's draws that has it.

        The search runs here, untimed, so set-up makes exactly one draw.
        """
        cases = []
        shares = self.WRITE_SHARES * self.MIXES_PER_SHARE
        for index, share in enumerate(shares):
            attempt = 0
            while True:
                specs, _, _ = self._draw((seed, index, attempt))
                writes = sum(s.rate_rps for s in specs if s.is_write_dominated)
                if abs(writes / sum(s.rate_rps for s in specs) - share) < 1e-9:
                    break
                attempt += 1
            cases.append((seed, index, attempt))
        return cases

    def _draw(self, case):
        rng = np.random.default_rng(list(case))
        specs, total = labeler.random_specs(
            self.config, rng, intensity_level=self.LEVEL
        )
        return specs, total, rng

    def setup(self, case, armed: bool = True) -> dict:
        cfg = self.config
        specs, total, rng = self._draw(case)
        trace_seed = _draw_seed(rng)
        traces = [
            mixer.synthesize_mix(specs, total_requests=total, seed=trace_seed + rep)
            for rep in range(cfg.replications)
        ]
        return {
            "traces": traces,
            "features": features.features_of_mix(
                traces[0], intensity_quantum=cfg.intensity_quantum
            ),
            "space": _LappingSpace(cfg.ssd.channels, cfg.n_tenants),
        }

    def run(self, state: dict, lap):
        cfg = self.config
        state["space"].lap = lap
        sweeps = [
            labeler.sweep_strategies(trace, state["features"], state["space"], cfg)
            for trace in state["traces"]
        ]
        objectives = np.mean(
            [[labeler.objective_us(r, cfg.objective) for r in sweep] for sweep in sweeps],
            axis=0,
        )
        return sweeps, objectives, labeler.pick_label(objectives, cfg.tie_epsilon)

    def input_requests(self, state: dict) -> int:
        """Trace requests times strategies swept."""
        return sum(len(t.requests) for t in state["traces"]) * len(state["space"])

    def outcome(self, state: dict, result) -> tuple[dict, list[str]]:
        sweeps, objectives, label = result
        problems = []
        n_strategies = len(state["space"])
        for trace, sweep in zip(state["traces"], sweeps):
            if len(sweep) != n_strategies:
                problems.append(f"sweep returned {len(sweep)} of {n_strategies} strategies")
            if any(r.requests != len(trace.requests) for r in sweep):
                problems.append("a sweep result lost requests")
        if objectives[label] > objectives.min() * (1 + self.config.tie_epsilon):
            problems.append(f"label {label} is outside the indifference band")
        shared = objectives[0]
        if objectives[label] > shared:
            problems.append(f"label {label} is worse than Shared")
        return {
            "read": _pooled([s[label].read for s in sweeps]),
            "write": _pooled([s[label].write for s in sweeps]),
            "gain_pct": float(100.0 * (shared - objectives[label]) / shared),
            "completed": sum(r.requests for s in sweeps for r in s),
        }, problems

    def digest(self, outcomes: list[dict], attempted: int) -> dict:
        """The label's latencies pooled over every read (write) of its runs.

        Pooled, not averaged per mix: the 75%-write mix has a third as many
        reads as the 25%-write one, and a plain mean over mixes would give
        its occasional slow reads the weight of all of those.
        """
        return {
            "sim_mean_read_us": _pooled([o["read"] for o in outcomes]).mean_us,
            "sim_mean_write_us": _pooled([o["write"] for o in outcomes]).mean_us,
            "request_success_fraction": sum(o["completed"] for o in outcomes) / attempted,
            "core.labeler.label_gain_vs_shared_pct": float(
                np.mean([o["gain_pct"] for o in outcomes])
            ),
        }


def _des_digest(outcomes: list[dict], attempted: int) -> dict:
    """Simulated values pooled over a pass's DES runs."""
    reads = _pooled([o["read"] for o in outcomes])
    writes = _pooled([o["write"] for o in outcomes])
    failed = sum(o["failed_reads"] for o in outcomes)
    host_pages = sum(o["write_pages"] for o in outcomes)
    moved = sum(o["pages_moved"] for o in outcomes)
    return {
        "sim_mean_read_us": reads.mean_us,
        "sim_mean_write_us": writes.mean_us,
        "request_success_fraction": (
            sum(o["completed"] for o in outcomes) - failed
        ) / attempted,
        "ssd.simulator.requests": sum(o["completed"] for o in outcomes),
        "ssd.simulator.subrequests": sum(o["subrequests"] for o in outcomes),
        "ssd.simulator.reads": reads.count,
        "ssd.simulator.read_p99_us": reads.percentile(99),
        "ssd.simulator.backlog_us": max(o["backlog_us"] for o in outcomes),
        "ssd.simulator.die_wait_us": sum(o["die_wait_us"] for o in outcomes),
        "ssd.simulator.channel_wait_us": sum(o["channel_wait_us"] for o in outcomes),
        "ssd.engine.events": sum(o["events"] for o in outcomes),
        "ssd.ftl.gc.collections": sum(o["collections"] for o in outcomes),
        "ssd.ftl.gc.pages_moved": moved,
        "ssd.ftl.gc.write_amplification": (
            (host_pages + moved) / host_pages if host_pages else 0.0
        ),
        "ssd.faults.failed_reads": failed,
        "ssd.faults.read_retries": sum(o["read_retries"] for o in outcomes),
        "ssd.faults.retired_blocks": sum(o["retired_blocks"] for o in outcomes),
    }


def _des_outcome(requests, result) -> tuple[dict, list[str]]:
    """Per-run simulated values of one DES result, plus conservation checks."""
    problems = []
    if result.requests != len(requests):
        problems.append(f"{result.requests} of {len(requests)} requests completed")
    if result.read.count + result.write.count + result.failed_reads != result.requests:
        problems.append("completed requests do not add up to reads + writes + failures")
    pages = sum(r.length for r in requests)
    if result.subrequests != pages:
        problems.append(f"{result.subrequests} of {pages} pages served")
    faults = result.extras.get("faults", {})
    return {
        "read": result.read,
        "write": result.write,
        "completed": result.requests,
        "failed_reads": result.failed_reads,
        "subrequests": result.subrequests,
        "write_pages": sum(r.length for r in requests if r.op is OpType.WRITE),
        "backlog_us": result.makespan_us - max(r.arrival_us for r in requests),
        "die_wait_us": result.die_wait_us,
        "channel_wait_us": result.channel_wait_us,
        "events": result.events,
        "collections": result.gc_collections,
        "pages_moved": result.gc_pages_moved,
        "read_retries": faults.get("read_retries", 0),
        "retired_blocks": faults.get("retired_blocks", 0),
    }, problems


class _LappingDetector(DriftDetector):
    """The keeper's drift detector, marking each keeper window with ``lap()``.

    ``run_periodic`` accepts a pre-built detector and feeds it once per
    window, so the run gets a step boundary per window without touching
    the program: one clock read per window on top of the detector's own
    work.
    """

    def update(self, time_us, features, residual):
        self.lap()
        return super().update(time_us, features, residual)


class OnlineAdaptive(Workload):
    """Algorithm 2: the adaptive keeper over a migrating hotspot.

    Six scenario instances per pass, each the scenario's four 50 ms
    phases (20 keeper windows, 120 decisions per pass) with the hot tenant at
    1.5 times the background rate.  The keeper's outcome is chaotic in the
    seed once the hot tenant can saturate the channels it is handed: over
    twelve seeds the spread (quartile distance over median) of a pass's
    mean read latency was 0.02 at 1.5 times and 0.16 at 2 and 2.5 times,
    where single instances read up to 2.5 times slower than the median;
    at the scenario's default 6 times the mean read ranged 131-866 us.
    Drift detection, retraining with promotions and rollbacks, and
    suppressed switches all still occur at 1.5 times.
    """

    name = "online_adaptive"
    observed = True
    INSTANCES = 6
    HOT_RATE_FACTOR = 1.5
    #: the drift lab's window and intensity quantum
    COLLECT_WINDOW_US = 10_000.0
    INTENSITY_QUANTUM = 50.0

    def cases(self, seed: int) -> list:
        return [(seed, index) for index in range(self.INSTANCES)]

    def setup(self, case, armed: bool = True) -> dict:
        rng = _case_rng(*case)
        workload = adversarial.build_scenario(
            "migrating_hotspot", seed=_draw_seed(rng),
            hot_rate_factor=self.HOT_RATE_FACTOR,
        )
        obs = Observability(trace=True, attribution=True) if armed else None
        keeper = SSDKeeper(
            driftlab.heuristic_allocator(),
            SSDConfig.small(),
            collect_window_us=self.COLLECT_WINDOW_US,
            intensity_quantum=self.INTENSITY_QUANTUM,
            verify_top_k=3,
            record_latencies=True,
            obs=obs,
        )
        drift, retrain = driftlab.lab_configs()
        return {
            "requests": workload.requests, "keeper": keeper, "obs": obs,
            "drift": _LappingDetector(drift), "retrain": retrain,
        }

    def run(self, state: dict, lap):
        state["drift"].lap = lap
        return state["keeper"].run_adaptive(
            state["requests"], drift=state["drift"], retrain=state["retrain"]
        )

    def input_requests(self, state: dict) -> int:
        return len(state["requests"])

    def outcome(self, state: dict, run) -> tuple[dict, list[str]]:
        values, problems = _des_outcome(state["requests"], run.result)
        if run.promotions + run.rollbacks != run.retrains:
            problems.append("retrain outcomes do not add up")
        if not run.decisions:
            problems.append("the keeper never decided")
        deployed = [None] + [strategy.label for _, _, strategy in run.decisions]
        switches = sum(a != b for a, b in zip(deployed, deployed[1:]))
        obs = state["obs"]
        if obs is not None:
            counted = obs.registry.snapshot()["counters"].get("keeper.switches", 0)
            if counted != switches:
                problems.append(f"keeper counted {counted} switches, decisions show {switches}")
        values.update(
            windows=len(run.decisions),
            switches=switches,
            suppressed=run.suppressed_switches,
            degraded=run.degraded_windows,
            retrains=run.retrains,
            promotions=run.promotions,
            rollbacks=run.rollbacks,
            detections=len(run.drift_events),
            trace_events=obs.trace.offered if obs else 0,
            breakdown=run.result.breakdown,
        )
        if obs is not None:
            recorded = run.result.breakdown.requests
            if recorded != run.result.requests - run.result.failed_reads:
                problems.append(f"attribution recorded {recorded} requests")
        return values, problems

    def digest(self, outcomes: list[dict], attempted: int) -> dict:
        out = _des_digest(outcomes, attempted)
        retrains = sum(o["retrains"] for o in outcomes)
        promotions = sum(o["promotions"] for o in outcomes)
        out.update({
            "core.keeper.windows": sum(o["windows"] for o in outcomes),
            "core.keeper.switches": sum(o["switches"] for o in outcomes),
            "core.keeper.suppressed_switches": sum(o["suppressed"] for o in outcomes),
            "core.keeper.degraded_windows": sum(o["degraded"] for o in outcomes),
            "core.online.retrains": retrains,
            "core.online.promotions": promotions,
            "core.online.rollbacks": sum(o["rollbacks"] for o in outcomes),
            "core.online.promotion_ratio": promotions / retrains if retrains else 0.0,
            "core.drift.detections": sum(o["detections"] for o in outcomes),
            "obs.trace_events": sum(o["trace_events"] for o in outcomes),
        })
        breakdowns = [o["breakdown"] for o in outcomes if o["breakdown"] is not None]
        if breakdowns:
            total_us = sum(b.total_latency_us for b in breakdowns)
            out["obs.attribution_records"] = sum(b.requests for b in breakdowns)
            for phase in PHASES:
                out[f"obs.phase_fraction.{phase}"] = sum(
                    b.phase_totals_us[f"{phase}_us"] for b in breakdowns
                ) / total_us
        return out


class DeviceGCFaults(Workload):
    """The bare event-driven device under GC pressure and NAND faults.

    Four tenants on isolated two-channel sets, static placement: two
    write-heavy (90% writes) and two read-heavy (10% writes), 3,000
    requests/s each, 2,000-page footprints, 40,000 requests.  The GC free
    block reserve is 10% / 20% (2 / 4 blocks of a 24-block plane): at the
    default 2% / 4% it rounds to 1 / 2 blocks and the faulted run aborts
    with "out of space" on about half the seeds (see the strict-xfail
    reproducer in ``tests/``).
    """

    name = "device_gc_faults"
    DEVICE = SSDConfig(
        blocks_per_plane=24, pages_per_block=16, gc_threshold=0.1, gc_restore=0.2
    )
    CHANNEL_SETS = {0: [0, 1], 1: [2, 3], 2: [4, 5], 3: [6, 7]}
    WRITE_RATIOS = (0.9, 0.9, 0.1, 0.1)
    RATE_RPS = 3_000.0
    FOOTPRINT_PAGES = 2_000
    REQUESTS = 40_000
    #: device runs per pass, each with its own trace and fault seed
    RUNS = 2
    #: simulated time per timed step of a run (~34 steps over the trace)
    SLICE_US = 100_000.0

    @classmethod
    def specs(cls, footprint_pages: int) -> list[WorkloadSpec]:
        return [
            WorkloadSpec(
                name=f"tenant{wid}", write_ratio=ratio, rate_rps=cls.RATE_RPS,
                footprint_pages=footprint_pages,
            )
            for wid, ratio in enumerate(cls.WRITE_RATIOS)
        ]

    @staticmethod
    def faults(seed: int) -> FaultConfig:
        return FaultConfig(
            seed=seed, read_ber=0.05, program_fail_rate=0.002, erase_fail_rate=0.01
        )

    def cases(self, seed: int) -> list:
        return [(seed, index) for index in range(self.RUNS)]

    def setup(self, case, armed: bool = True) -> dict:
        rng = _case_rng(*case)
        workload = mixer.synthesize_mix(
            self.specs(self.FOOTPRINT_PAGES), total_requests=self.REQUESTS,
            seed=_draw_seed(rng),
        )
        sim = SSDSimulator(
            self.DEVICE, self.CHANNEL_SETS, record_latencies=True,
            faults=self.faults(_draw_seed(rng)),
        )
        return {"requests": workload.requests, "sim": sim}

    def run(self, state: dict, lap):
        """``SSDSimulator.run`` in its decomposed form, lapping every slice."""
        sim = state["sim"]
        sim.prepare(state["requests"])
        horizon = self.SLICE_US
        while sim.loop.pending_strong:
            sim.loop.run(until=horizon)
            lap()
            horizon += self.SLICE_US
        sim.loop.run()
        return sim.collect()

    def input_requests(self, state: dict) -> int:
        return len(state["requests"])

    def outcome(self, state: dict, result) -> tuple[dict, list[str]]:
        return _des_outcome(state["requests"], result)

    def digest(self, outcomes: list[dict], attempted: int) -> dict:
        return _des_digest(outcomes, attempted)


WORKLOADS = {w.name: w for w in (OfflineLabel, OnlineAdaptive, DeviceGCFaults)}


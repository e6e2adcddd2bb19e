"""Seeded NAND fault injection.

Real flash fails in three ways this package previously ignored: reads come
back with uncorrectable-by-first-try bit errors and need ECC *read retries*
(each retry re-issues the sense with tuned thresholds, multiplying the die
occupancy); programs fail and force the FTL to retire the block and
re-dispatch the data; erases fail and retire the block outright.  SSDKeeper's
premise — that channel allocation must adapt to changing conditions — is only
exercised under such degraded regimes, so this module provides them as an
opt-in, fully deterministic fault model.

Design rules:

* **Deterministic.**  All randomness flows from one ``random.Random(seed)``;
  draws happen in discrete-event order, so two runs with the same seed and
  trace produce byte-identical results (asserted by
  ``tests/integration/test_fault_injection.py``).
* **Wear-coupled.**  Per-op probabilities escalate linearly with the target
  block's erase count (``p * (1 + wear_coupling * erases)``), reusing the
  erase counters the planes already keep — old blocks fail first, as on real
  NAND.
* **Opt-in and cheap when off.**  Every component takes ``faults=None``
  (same pattern as ``obs``) and pays one ``is not None`` branch per
  operation when disabled.

The injector is pure policy: it decides *whether* an operation fails and
keeps counters; the FTL owns the state response (bad-block retirement,
re-dispatch) and the simulator owns the timing response (retry latency,
failed-request surfacing).
"""

from __future__ import annotations

from dataclasses import dataclass
import random

__all__ = ["FaultConfig", "FaultInjector", "FaultWorkItem", "ReadOutcome"]

#: Effective per-op probabilities are clamped here so wear escalation can
#: never push an operation to certain failure (which would livelock the
#: program re-dispatch loop).
_MAX_EFFECTIVE_RATE = 0.999


@dataclass(frozen=True)
class FaultConfig:
    """Per-run fault-injection parameters (all probabilities per operation).

    The defaults are deliberately mild: visible error counters on a few
    thousand operations without turning the device into rubble.  Everything
    is off when the config itself is absent (``faults=None``).
    """

    #: RNG seed; same seed + same trace => identical run.
    seed: int = 1234
    #: Probability that one read *attempt* returns uncorrectable data and
    #: needs an ECC read retry (per read sub-request attempt).
    read_ber: float = 0.0
    #: Probability that one page program operation fails (retires the block).
    program_fail_rate: float = 0.0
    #: Probability that one block erase operation fails (retires the block).
    erase_fail_rate: float = 0.0
    #: Read retries attempted before the read is declared unrecoverable.
    max_read_retries: int = 3
    #: Linear wear escalation: effective rate = base * (1 + coupling * erases).
    wear_coupling: float = 0.0

    def __post_init__(self) -> None:
        for name in ("read_ber", "program_fail_rate", "erase_fail_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.max_read_retries < 0:
            raise ValueError("max_read_retries must be non-negative")
        if self.wear_coupling < 0:
            raise ValueError("wear_coupling must be non-negative")

    # ------------------------------------------------------------------
    def expected_read_retries(self) -> float:
        """Expected ECC retries per read at zero wear (for the fast model)."""
        p = min(self.read_ber, _MAX_EFFECTIVE_RATE)
        return sum(p ** k for k in range(1, self.max_read_retries + 1))


@dataclass(frozen=True)
class ReadOutcome:
    """Result of consulting the injector for one read sub-request."""

    #: ECC read retries performed (0 = clean first sense).
    retries: int
    #: True when ``max_read_retries`` retries were exhausted without success.
    unrecoverable: bool


@dataclass(frozen=True)
class FaultWorkItem:
    """Timing record of one program-failure retirement.

    ``moves`` valid pages were relocated out of the retired block
    (plane-internal copyback) and one program attempt was wasted; the
    simulator charges both to the plane's die, exactly as it charges
    :class:`~repro.ssd.ftl.gc.GCWorkItem` records.
    """

    plane_index: int
    block: int
    moves: int

    def die_us(self, times) -> float:
        """Die occupancy: relocation copybacks plus the failed program."""
        return self.moves * times.move_die_us + times.write_die_us


@dataclass
class _ChannelHealth:
    """Per-channel operation/error tallies for degradation decisions."""

    ops: int = 0
    errors: int = 0

    @property
    def error_rate(self) -> float:
        return self.errors / self.ops if self.ops else 0.0


class FaultInjector:
    """Deterministic, seeded fault oracle plus fault accounting.

    One injector serves one simulation run.  The hot-path entry points
    (:meth:`read_outcome`, :meth:`program_fails`, :meth:`erase_fails`) each
    draw from the shared RNG in event order and update per-channel health,
    so the keeper can ask :meth:`worst_channel` when deciding whether to
    degrade gracefully.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        # --- global counters (mirrored into the obs registry at run end) ---
        self.read_errors = 0  # reads needing >= 1 retry
        self.read_retries = 0  # total extra sense operations
        self.unrecoverable_reads = 0
        self.program_failures = 0
        self.erase_failures = 0
        self.retired_blocks = 0
        self.lost_pages = 0
        self._channels: dict[int, _ChannelHealth] = {}

    # ------------------------------------------------------------------
    def effective_rate(self, base: float, erase_count: int) -> float:
        """Wear-escalated per-op probability, clamped below certainty."""
        if base <= 0.0:
            return 0.0
        rate = base * (1.0 + self.config.wear_coupling * erase_count)
        return rate if rate < _MAX_EFFECTIVE_RATE else _MAX_EFFECTIVE_RATE

    def _health(self, channel: int) -> _ChannelHealth:
        health = self._channels.get(channel)
        if health is None:
            health = self._channels[channel] = _ChannelHealth()
        return health

    # ------------------------------------------------------------------
    def read_outcome(self, channel: int, erase_count: int) -> ReadOutcome:
        """Draw the retry/failure outcome for one read sub-request."""
        health = self._health(channel)
        health.ops += 1
        p = self.effective_rate(self.config.read_ber, erase_count)
        if p <= 0.0 or self._rng.random() >= p:
            return ReadOutcome(0, False)
        health.errors += 1
        self.read_errors += 1
        retries = 0
        while retries < self.config.max_read_retries:
            retries += 1
            self.read_retries += 1
            if self._rng.random() >= p:
                return ReadOutcome(retries, False)
        self.unrecoverable_reads += 1
        return ReadOutcome(retries, True)

    def program_fails(self, channel: int, erase_count: int) -> bool:
        """Draw whether one page program fails (block must then retire)."""
        health = self._health(channel)
        health.ops += 1
        p = self.effective_rate(self.config.program_fail_rate, erase_count)
        if p <= 0.0 or self._rng.random() >= p:
            return False
        health.errors += 1
        self.program_failures += 1
        return True

    def erase_fails(self, channel: int, erase_count: int) -> bool:
        """Draw whether one block erase fails (block must then retire)."""
        health = self._health(channel)
        health.ops += 1
        p = self.effective_rate(self.config.erase_fail_rate, erase_count)
        if p <= 0.0 or self._rng.random() >= p:
            return False
        health.errors += 1
        self.erase_failures += 1
        return True

    def note_retirement(self, pages_lost: int) -> None:
        """Account one retired block (``pages_lost`` capacity gone for good)."""
        self.retired_blocks += 1
        self.lost_pages += pages_lost

    # ------------------------------------------------------------------
    def worst_channel(self) -> tuple[int, float]:
        """(channel, error_rate) of the unhealthiest channel seen so far."""
        worst, rate = -1, 0.0
        for channel, health in self._channels.items():
            if health.error_rate > rate:
                worst, rate = channel, health.error_rate
        return worst, rate

    def channel_error_rates(self) -> dict[int, float]:
        """Per-channel observed error rate (channels with traffic only)."""
        return {
            channel: health.error_rate
            for channel, health in sorted(self._channels.items())
        }

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Counter snapshot embedded into ``SimulationResult.extras``."""
        return {
            "read_errors": self.read_errors,
            "read_retries": self.read_retries,
            "unrecoverable_reads": self.unrecoverable_reads,
            "program_failures": self.program_failures,
            "erase_failures": self.erase_failures,
            "retired_blocks": self.retired_blocks,
            "lost_pages": self.lost_pages,
        }

    def publish(self, registry) -> None:
        """Mirror the counters into an obs registry as ``faults.*``.

        Per-channel error rates go in as gauges so ``repro stats --json``
        can show *where* the device is degrading, not just how much.
        """
        for name, value in self.summary().items():
            registry.counter(f"faults.{name}").value = value
        for channel, rate in self.channel_error_rates().items():
            registry.gauge(f"faults.channel.{channel}.error_rate").set(rate)


@dataclass(frozen=True)
class FaultExpectation:
    """Expected-value service-time inflation for the vectorised fast model.

    The fast model has no per-block state to sample against, so it derates
    deterministically: reads cost the expected number of ECC retries (at
    zero wear) and writes cost the expected re-program overhead.  This keeps
    fast-model predictions calibrated when the keeper replays an observed
    window under injected faults.
    """

    read_die_multiplier: float = 1.0
    write_die_multiplier: float = 1.0

    @classmethod
    def from_config(cls, config: FaultConfig) -> "FaultExpectation":
        return cls(
            read_die_multiplier=1.0 + config.expected_read_retries(),
            write_die_multiplier=1.0 + min(config.program_fail_rate, _MAX_EFFECTIVE_RATE),
        )


# Re-exported for the package façade.
__all__.append("FaultExpectation")

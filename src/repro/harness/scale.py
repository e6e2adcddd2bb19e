"""Experiment scale presets.

Every experiment accepts a :class:`Scale` so the same code serves three
regimes:

* ``smoke`` — seconds; CI and unit tests;
* ``default`` — minutes on one core; the numbers committed in
  EXPERIMENTS.md;
* ``paper`` — the authors' setting (5,000 mixes, 2M-request traces); hours,
  provided for completeness.

The *shape* of every result (which strategy wins, where crossovers fall) is
stable across scales; only variance shrinks with size.
"""

from __future__ import annotations

from dataclasses import dataclass
import os

__all__ = ["Scale"]


@dataclass(frozen=True)
class Scale:
    """Knobs that trade experiment fidelity against wall-clock."""

    name: str
    #: requests per Figure-2 point (paper: 2,000,000 total per experiment)
    fig2_requests: int
    #: trace replications averaged per Figure-2 point
    fig2_replications: int
    #: labelled mixes in the training set (paper: 5,000)
    dataset_samples: int
    #: training iterations (paper: 200)
    train_iterations: int
    #: requests per Figure-5 mixed trace (paper: 1,000,000)
    mix_requests: int
    #: random mixes in the Figure-6 strategy map
    fig6_samples: int
    #: mixes for the fast-model fidelity ablation
    fidelity_mixes: int

    @classmethod
    def smoke(cls) -> "Scale":
        return cls(
            name="smoke",
            fig2_requests=600,
            fig2_replications=1,
            dataset_samples=48,
            train_iterations=40,
            mix_requests=1500,
            fig6_samples=40,
            fidelity_mixes=3,
        )

    @classmethod
    def default(cls) -> "Scale":
        return cls(
            name="default",
            fig2_requests=3000,
            fig2_replications=2,
            dataset_samples=3600,
            train_iterations=200,
            mix_requests=8000,
            fig6_samples=250,
            fidelity_mixes=8,
        )

    @classmethod
    def paper(cls) -> "Scale":
        return cls(
            name="paper",
            fig2_requests=2_000_000,
            fig2_replications=1,
            dataset_samples=5000,
            train_iterations=200,
            mix_requests=1_000_000,
            fig6_samples=1000,
            fidelity_mixes=20,
        )

    @classmethod
    def from_name(cls, name: str) -> "Scale":
        factories = {"smoke": cls.smoke, "default": cls.default, "paper": cls.paper}
        try:
            return factories[name.strip().lower()]()
        except KeyError:
            raise ValueError(
                f"unknown scale {name!r}; known: {sorted(factories)}"
            ) from None

    @classmethod
    def from_env(cls) -> "Scale":
        """Resolve from ``$REPRO_SCALE`` (used by the benches), else default."""
        return cls.from_name(os.environ.get("REPRO_SCALE", "default"))

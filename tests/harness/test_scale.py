"""Scale presets and env resolution."""

import pytest

from repro.harness import Scale


class TestPresets:
    def test_names(self):
        assert Scale.smoke().name == "smoke"
        assert Scale.default().name == "default"
        assert Scale.paper().name == "paper"

    def test_monotone_sizes(self):
        smoke, default, paper = Scale.smoke(), Scale.default(), Scale.paper()
        for field in ("fig2_requests", "dataset_samples", "mix_requests"):
            assert getattr(smoke, field) <= getattr(default, field) <= getattr(paper, field)

    def test_paper_scale_matches_paper_numbers(self):
        paper = Scale.paper()
        assert paper.fig2_requests == 2_000_000
        assert paper.dataset_samples == 5000
        assert paper.train_iterations == 200
        assert paper.mix_requests == 1_000_000

    def test_from_name(self):
        assert Scale.from_name("SMOKE").name == "smoke"
        with pytest.raises(ValueError):
            Scale.from_name("galactic")


class TestEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert Scale.from_env().name == "smoke"

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert Scale.from_env().name == "default"

"""Artifact cache semantics."""

import json

import pytest

from repro.harness import ArtifactCache


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestGetOrBuild:
    def test_builds_once(self, cache):
        calls = []

        def fetch():
            return cache.get_or_build_json(
                "thing", {"a": 1}, build=lambda: calls.append(1) or {"x": 42}
            )

        assert fetch() == {"x": 42}
        assert fetch() == {"x": 42}
        assert len(calls) == 1

    def test_different_params_rebuild(self, cache):
        calls = []

        def build():
            calls.append(1)
            return {"n": len(calls)}

        a = cache.get_or_build_json("thing", {"a": 1}, build=build)
        b = cache.get_or_build_json("thing", {"a": 2}, build=build)
        assert a != b
        assert len(calls) == 2

    def test_corrupt_entry_rebuilds(self, cache):
        doc = cache.get_or_build_json("thing", {"a": 1}, build=lambda: {"ok": True})
        path = cache.path_for("thing", {"a": 1}, ".json")
        path.write_text("{not json")
        doc2 = cache.get_or_build_json("thing", {"a": 1}, build=lambda: {"ok": True})
        assert doc == doc2
        # The rebuilt entry is valid on disk again.
        assert json.loads(path.read_text()) == {"ok": True}

    def test_binary_artifacts_with_suffix(self, cache, tmp_path):
        def save(data, path):
            path.write_bytes(data)

        def load(path):
            return path.read_bytes()

        out = cache.get_or_build(
            "blob", {"k": 1}, build=lambda: b"abc", save=save, load=load, suffix=".bin"
        )
        assert out == b"abc"
        assert cache.path_for("blob", {"k": 1}, ".bin").exists()

    def test_param_order_does_not_matter(self, cache):
        a = cache.path_for("x", {"a": 1, "b": 2}, ".json")
        b = cache.path_for("x", {"b": 2, "a": 1}, ".json")
        assert a == b

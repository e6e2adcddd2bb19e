"""Model serialisation: bit-exact round trips."""

import json

import numpy as np
import pytest

from repro.nn import MLP
from repro.nn.serialization import CheckpointError, from_dict, to_dict


class TestRoundTrip:
    def test_bit_exact_parameters(self, rng):
        net = MLP([4, 7, 3], hidden_activation="logistic", seed=2)
        clone = from_dict(to_dict(net))
        for a, b in zip(net.layers, clone.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)

    def test_identical_predictions(self, rng):
        net = MLP([4, 7, 3], seed=2)
        clone = from_dict(to_dict(net))
        x = rng.normal(size=(10, 4))
        assert np.array_equal(net.forward(x), clone.forward(x))

    def test_file_roundtrip(self, tmp_path, rng):
        net = MLP([9, 64, 42], hidden_activation="logistic", seed=1)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(to_dict(net)), encoding="utf-8")
        clone = from_dict(json.loads(path.read_text(encoding="utf-8")))
        x = rng.normal(size=(3, 9))
        assert np.array_equal(net.forward(x), clone.forward(x))

    def test_activation_preserved(self):
        net = MLP([2, 3, 2], hidden_activation="logistic", seed=0)
        assert from_dict(to_dict(net)).hidden_activation == "logistic"

    def test_payload_is_json_serialisable(self):
        net = MLP([2, 3, 2], seed=0)
        json.dumps(to_dict(net))  # must not raise


class TestValidation:
    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            from_dict({"format": "bogus"})

    def test_rejects_layer_count_mismatch(self):
        net = MLP([2, 3, 2], seed=0)
        payload = to_dict(net)
        payload["layers"] = payload["layers"][:1]
        with pytest.raises(ValueError):
            from_dict(payload)

    def test_rejects_shape_mismatch(self):
        net = MLP([2, 3, 2], seed=0)
        payload = to_dict(net)
        payload["layers"][0]["bias"] = payload["layers"][0]["bias"][:-1]
        with pytest.raises(ValueError):
            from_dict(payload)

    def test_errors_are_checkpoint_errors(self):
        """Every rejection is a CheckpointError (a ValueError subclass)."""
        net = MLP([2, 3, 2], seed=0)
        bad_format = {"format": "bogus"}
        missing_keys = {"format": "repro-mlp-v1"}
        truncated = to_dict(net)
        truncated["layers"] = truncated["layers"][:1]
        for payload in (bad_format, missing_keys, truncated, [1, 2], {}):
            with pytest.raises(CheckpointError):
                from_dict(payload)

    def test_rejects_bad_layer_sizes(self):
        payload = to_dict(MLP([2, 3, 2], seed=0))
        for sizes in ([2], [2, 0, 2], "2,3,2", [2, 3.5, 2]):
            payload["layer_sizes"] = sizes
            with pytest.raises(CheckpointError, match="layer_sizes"):
                from_dict(payload)

    def test_rejects_unparseable_hex_floats(self):
        payload = to_dict(MLP([2, 3, 2], seed=0))
        payload["layers"][0]["weight"][0][0] = "not-a-float"
        with pytest.raises(CheckpointError, match="layer 0 weight"):
            from_dict(payload)

    def test_rejects_non_finite_parameters(self):
        payload = to_dict(MLP([2, 3, 2], seed=0))
        payload["layers"][1]["bias"][0] = float("nan").hex()
        with pytest.raises(CheckpointError, match="non-finite"):
            from_dict(payload)

"""Model parameter serialisation.

The paper trains on the host and "sends the parameters to the FTL"
(Section IV-C).  This module is that wire format: a JSON-serialisable
document holding the architecture, hidden activation, and every layer's
weights and biases, round-trippable bit-for-bit at float64 precision via
hex floats.

:func:`from_dict` validates the document before touching any numpy
machinery: a corrupt or truncated checkpoint raises :class:`CheckpointError`
(a ``ValueError``) naming what is wrong, never a raw
``KeyError``/``TypeError`` from deep inside array construction.
Non-finite parameters are rejected — a NaN weight would silently poison
every downstream prediction.
"""

from __future__ import annotations

import numpy as np

from .network import MLP

__all__ = ["CheckpointError", "to_dict", "from_dict"]

_FORMAT = "repro-mlp-v1"


class CheckpointError(ValueError):
    """A model checkpoint is malformed, truncated, or inconsistent."""


def to_dict(network: MLP) -> dict:
    """Serialisable description of a network."""
    return {
        "format": _FORMAT,
        "layer_sizes": network.layer_sizes,
        "hidden_activation": network.hidden_activation,
        "layers": [
            {
                "weight": [[v.hex() for v in row] for row in layer.weight.tolist()],
                "bias": [v.hex() for v in layer.bias.tolist()],
            }
            for layer in network.layers
        ],
    }


def _parse_floats(values, what: str) -> np.ndarray:
    """Hex-float list(s) -> array, with a named error on any bad cell."""
    try:
        arr = np.array(
            [[float.fromhex(v) for v in row] for row in values]
            if values and isinstance(values[0], list)
            else [float.fromhex(v) for v in values]
        )
    except (TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"{what}: unparseable hex float ({exc})") from exc
    if not np.all(np.isfinite(arr)):
        raise CheckpointError(f"{what}: contains non-finite values")
    return arr


def from_dict(payload: dict) -> MLP:
    """Rebuild a network from :func:`to_dict` output.

    Raises :class:`CheckpointError` on any structural problem: wrong
    format tag, missing keys, bad layer sizes, unparseable or non-finite
    parameters, or shapes inconsistent with the declared architecture.
    """
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint must be a JSON object, got {type(payload).__name__}"
        )
    if payload.get("format") != _FORMAT:
        raise CheckpointError(f"unsupported model format {payload.get('format')!r}")
    for key in ("layer_sizes", "hidden_activation", "layers"):
        if key not in payload:
            raise CheckpointError(f"checkpoint is missing {key!r}")
    sizes = payload["layer_sizes"]
    if (
        not isinstance(sizes, list)
        or len(sizes) < 2
        or not all(isinstance(s, int) and s > 0 for s in sizes)
    ):
        raise CheckpointError(f"layer_sizes must be >= 2 positive ints, got {sizes!r}")
    try:
        network = MLP(sizes, hidden_activation=payload["hidden_activation"])
    except (ValueError, KeyError) as exc:
        raise CheckpointError(f"cannot build architecture: {exc}") from exc
    layers = payload["layers"]
    if not isinstance(layers, list) or len(layers) != len(network.layers):
        raise CheckpointError(
            f"expected {len(network.layers)} layers, got "
            f"{len(layers) if isinstance(layers, list) else type(layers).__name__}"
        )
    for i, (layer, state) in enumerate(zip(network.layers, layers)):
        if not isinstance(state, dict) or "weight" not in state or "bias" not in state:
            raise CheckpointError(f"layer {i}: missing weight/bias")
        weight = _parse_floats(state["weight"], f"layer {i} weight")
        bias = _parse_floats(state["bias"], f"layer {i} bias")
        if weight.shape != layer.weight.shape or bias.shape != layer.bias.shape:
            raise CheckpointError(
                f"layer {i}: parameter shape {weight.shape}/{bias.shape} does "
                f"not match architecture {layer.weight.shape}/{layer.bias.shape}"
            )
        layer.weight = weight
        layer.bias = bias
    return network


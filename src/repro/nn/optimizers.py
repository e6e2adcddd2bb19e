"""Gradient-based optimizers.

The paper's Algorithm 1 is the plain Equation-1 update (:class:`SGD`); the
evaluation additionally explores SGD with momentum and Adam (Table III, with
the paper's tuned hyper-parameters: SGD lr 0.2, momentum 0.9, Adam lr 0.02).

Every optimizer exposes ``step(params, grads)`` where both lists align
elementwise; state (velocities, moment estimates) is keyed by position so a
given optimizer instance must always be stepped with the same parameter
list.  Only the learning rate is settable; the other hyper-parameters are
the module constants below.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "SGD", "SGDMomentum", "Adam", "get_optimizer"]

#: SGD-with-momentum's velocity decay (the paper's tuned 0.9)
_MOMENTUM = 0.9
#: Adam's first- and second-moment decays (Kingma & Ba's defaults)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
#: keeps Adam's denominator away from zero
_EPS = 1e-8


class Optimizer:
    """Base optimizer; subclasses implement :meth:`step`."""

    name = "base"

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        raise NotImplementedError

    def _check(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ValueError("params and grads must align")
        for p, g in zip(params, grads):
            if p.shape != g.shape:
                raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(lr={self.learning_rate})"


class SGD(Optimizer):
    """Equation 1: ``w := w - alpha * dC/dw``."""

    name = "sgd"

    def __init__(self, learning_rate: float = 0.2) -> None:
        super().__init__(learning_rate)

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self._check(params, grads)
        for p, g in zip(params, grads):
            p -= self.learning_rate * g


class SGDMomentum(Optimizer):
    """Heavy-ball momentum: ``v := mu*v - alpha*g; w += v``."""

    name = "sgd-momentum"

    def __init__(self, learning_rate: float = 0.2) -> None:
        super().__init__(learning_rate)
        self._velocity: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self._check(params, grads)
        if self._velocity is None:
            self._velocity = [np.zeros_like(p) for p in params]
        for p, g, v in zip(params, grads, self._velocity):
            v *= _MOMENTUM
            v -= self.learning_rate * g
            p += v


class Adam(Optimizer):
    """Adam (Kingma & Ba): per-parameter steps scaled by bias-corrected
    first- and second-moment estimates of the gradient."""

    name = "adam"

    def __init__(self, learning_rate: float = 0.02) -> None:
        super().__init__(learning_rate)
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self._check(params, grads)
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        b1c = 1.0 - _ADAM_BETA1**self._t
        b2c = 1.0 - _ADAM_BETA2**self._t
        assert self._v is not None
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * g * g
            m_hat = m / b1c
            v_hat = v / b2c
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)


_REGISTRY: dict[str, type[Optimizer]] = {
    cls.name: cls for cls in (SGD, SGDMomentum, Adam)
}


def get_optimizer(name: str | Optimizer, **kwargs) -> Optimizer:
    """Resolve an optimizer by registry name."""
    if isinstance(name, Optimizer):
        return name
    try:
        return _REGISTRY[name.lower()](**kwargs)
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; known: {sorted(_REGISTRY)}"
        ) from None

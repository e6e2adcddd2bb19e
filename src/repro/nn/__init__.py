"""From-scratch neural-network substrate.

A numpy-only MLP with the optimizers and activations the paper evaluates
(SGD, SGD-momentum, Adam; ReLU and logistic), plus AdaGrad/RMSProp for the
ablations.  Gradient correctness is enforced by finite-difference checks in
``tests/nn/test_gradients.py``.
"""

from . import serialization
from .activations import Activation, Identity, Logistic, ReLU, Tanh, get_activation, softmax
from .layers import Dense
from .losses import Loss, SoftmaxCrossEntropy
from .metrics import top_k_accuracy
from .network import MLP, paper_network
from .optimizers import SGD, AdaGrad, Adam, Optimizer, RMSProp, SGDMomentum, get_optimizer
from .preprocessing import StandardScaler, minibatches, train_test_split
from .training import History, Trainer

__all__ = [
    "Activation",
    "Identity",
    "Logistic",
    "ReLU",
    "Tanh",
    "get_activation",
    "softmax",
    "Loss",
    "SoftmaxCrossEntropy",
    "Dense",
    "MLP",
    "paper_network",
    "AdaGrad",
    "Adam",
    "Optimizer",
    "RMSProp",
    "SGD",
    "SGDMomentum",
    "get_optimizer",
    "top_k_accuracy",
    "StandardScaler",
    "minibatches",
    "train_test_split",
    "History",
    "Trainer",
    "serialization",
]

"""A from-scratch numpy neural-network library.

The paper implements DDPG/TD3 with PyTorch; this substrate provides the
minimal equivalent machinery — fully-connected layers with manual
backpropagation (including gradients with respect to *inputs*, needed for
the deterministic policy gradient dQ/da), Adam/SGD optimizers, soft target
updates and exploration noise — using vectorized numpy only.
"""

from repro.nn.init import he_uniform, uniform_init, xavier_uniform
from repro.nn.layers import Linear, ReLU, Sigmoid, Tanh
from repro.nn.losses import mse_loss
from repro.nn.network import MLP, Parameter, ParameterArena, Sequential
from repro.nn.noise import GaussianNoise, OrnsteinUhlenbeckNoise
from repro.nn.optim import SGD, Adam
from repro.nn.target import hard_update, soft_update

__all__ = [
    "xavier_uniform",
    "he_uniform",
    "uniform_init",
    "Linear",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "mse_loss",
    "Parameter",
    "ParameterArena",
    "Sequential",
    "MLP",
    "GaussianNoise",
    "OrnsteinUhlenbeckNoise",
    "SGD",
    "Adam",
    "soft_update",
    "hard_update",
]

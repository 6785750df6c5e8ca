"""Minimal from-scratch neural network stack for illuminant estimation."""

from mcde.nn.archs import ARCHITECTURES, build
from mcde.nn.io import FORMAT_VERSION, ModelFormatError, load_network, save_network
from mcde.nn.layers import (
    Affine,
    Conv3x3,
    Dropout,
    MaxPool,
    MeanPool,
    PositiveHead,
    Relu,
)
from mcde.nn.network import Mode, Network, NumericError, PassSeed, cosine_loss
from mcde.nn.training import TrainConfig, TrainingError, train

__all__ = [
    "ARCHITECTURES",
    "Affine",
    "Conv3x3",
    "Dropout",
    "FORMAT_VERSION",
    "MaxPool",
    "MeanPool",
    "Mode",
    "ModelFormatError",
    "Network",
    "NumericError",
    "PassSeed",
    "PositiveHead",
    "Relu",
    "TrainConfig",
    "TrainingError",
    "build",
    "cosine_loss",
    "load_network",
    "save_network",
    "train",
]

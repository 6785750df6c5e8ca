"""Stock architectures.

Two deliberately different stacks: g-net averages features before the
readout and drops whole channels ahead of the pool, m-net takes a
spatial max and drops pooled features.  The pooling and dropout
placement differ so the two models fail in different ways on the same
scene, which is what makes ensembling them worthwhile.
"""

from __future__ import annotations

import math

import numpy as np

from mcde._check import check_int
from mcde.nn.layers import Affine, Conv3x3, Dropout, MaxPool, MeanPool, PositiveHead, Relu
from mcde.nn.network import Network
from mcde.seeding import derive_seed

__all__ = ["ARCHITECTURES", "build", "check_member", "param_count", "stack"]

# Name -> the layers ``stack`` puts between conv+ReLU and the Affine
# readout, given the dropout rate.
ARCHITECTURES = {
    "g-net": lambda rate: [Dropout(rate), MeanPool()],
    "m-net": lambda rate: [MaxPool(), Dropout(rate)],
}


def stack(arch: str, channels: int, dropout_rate: float) -> Network:
    """The stock network for ``arch``, ``channels`` and ``dropout_rate``, every
    parameter zero: ``build`` draws weights into it, model files fill it."""
    check_member(arch, channels, dropout_rate)
    middle = ARCHITECTURES[arch](dropout_rate)
    layers = [Conv3x3(3, channels), Relu(), *middle, Affine(channels, 3), PositiveHead()]
    return Network(layers, arch=arch)


def build(arch: str, seed: int = 0, channels: int = 12, dropout_rate: float = 0.3) -> Network:
    """The ``stack`` with weights drawn from ``seed``.

    Weights are uniform in [-s, s] with s = sqrt(6 / (fan_in + fan_out)),
    one generator per layer index, drawn in float64 and rounded to the
    layers' float32; biases are zero.
    """
    net = stack(arch, channels, dropout_rate)
    for i, layer in enumerate(net.layers):
        if layer.params:
            layer.init(np.random.default_rng(derive_seed("layer-init", seed, i)))
    return net


def param_count(channels: int) -> int:
    """How many parameters ``stack`` gives a network of ``channels``, without
    allocating them: those of the conv from RGB and the affine readout, the
    only stock layers that have any."""
    shapes = [
        *Conv3x3.param_shapes(3, channels).values(),
        *Affine.param_shapes(channels, 3).values(),
    ]
    return sum(math.prod(shape) for shape in shapes)


def check_member(arch: str, channels: int, dropout_rate: float) -> None:
    """Reject what ``stack`` cannot build, without building it."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}; choose from {sorted(ARCHITECTURES)}")
    check_int("channels", channels, 1)
    Dropout(dropout_rate)

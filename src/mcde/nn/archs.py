"""Stock architectures.

Two deliberately different stacks: g-net averages features before the
readout and drops whole channels ahead of the pool, m-net takes a
spatial max and drops pooled features.  The pooling and dropout
placement differ so the two models fail in different ways on the same
scene, which is what makes ensembling them worthwhile.
"""

from __future__ import annotations

import numpy as np

from mcde._check import check_int
from mcde.nn.layers import Affine, Conv3x3, Dropout, MaxPool, MeanPool, PositiveHead, Relu
from mcde.nn.network import Network
from mcde.seeding import derive_seed

__all__ = ["ARCHITECTURES", "MAX_CHANNELS", "build", "stack"]

# Name -> the layers ``stack`` puts between conv+ReLU and the Affine
# readout, given the dropout rate.
ARCHITECTURES = {
    "g-net": lambda rate: [Dropout(rate), MeanPool()],
    "m-net": lambda rate: [MaxPool(), Dropout(rate)],
}

# Channels a stock network may have, about 85x the default of 12.  At
# 64x64, one epoch of 8 scenes for g-net and m-net and one ``mcde()``
# call peak at 104 MiB of RSS with 1024 channels, against 39 MiB with 12;
# an unbounded count asks numpy for arrays of any size.
MAX_CHANNELS = 1024


def stack(arch: str, channels: int, dropout_rate: float) -> Network:
    """The stock network for ``arch``, ``channels`` and ``dropout_rate``, every
    parameter zero: ``build`` draws weights into it, model files fill it.

    The one check of a member: an unknown arch, ``channels`` outside
    [1, ``MAX_CHANNELS``] and, through ``Dropout``, a bad rate are refused.
    """
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}; choose from {sorted(ARCHITECTURES)}")
    check_int("channels", channels, 1, MAX_CHANNELS)
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


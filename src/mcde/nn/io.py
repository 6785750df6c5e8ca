"""Flat binary container of a stock network plus a JSON sidecar.

A file holds what ``stack`` needs to rebuild a network, and the weights.
Binary layout (all integers little-endian):

    magic            8 bytes  b"MCDENET1"
    format version   uint32
    arch name        uint16 length + utf-8 bytes, a key of ARCHITECTURES
    channels         uint32
    dropout rate     float64
    parameters       every parameter of stack(arch, channels,
                     dropout_rate), in layer order and then in sorted
                     name order, as raw float32 (<f4, C order)

Format version 3 holds stock networks only.  Version 2 held a record per
layer and version 1 float64 parameters; both are rejected.  Weights
round-trip bit-exactly.  Loading builds the ``stack`` the header names,
whose checks refuse a malformed header with ModelFormatError and whose
size ``MAX_CHANNELS`` bounds, then checks that the file holds exactly
that stack's parameter bytes before it reads them.  The sidecar at
``<path>.json`` describes the network and, when provided, the training
config and loss trace; it is documentation, the binary alone rebuilds
the network.
"""

from __future__ import annotations

import json
import os
import struct
from itertools import zip_longest
from pathlib import Path

import numpy as np

from mcde.nn.archs import stack
from mcde.nn.layers import PARAM_DTYPE, Conv3x3, Dropout
from mcde.nn.network import Network

__all__ = ["ModelFormatError", "save_network", "load_network", "FORMAT_VERSION"]

MAGIC = b"MCDENET1"
FORMAT_VERSION = 3


class ModelFormatError(Exception):
    """Malformed, truncated, or version-incompatible model file."""


def _layout(net: Network) -> list:
    """Each layer's kind and parameter shapes."""
    return [
        (layer.kind, {name: param.shape for name, param in layer.params.items()})
        for layer in net.layers
    ]


def _stored(net: Network) -> list:
    """(layer params, name) per parameter, as stored: layer order, then sorted name."""
    return [(layer.params, name) for layer in net.layers for name in sorted(layer.params)]


def save_network(net: Network, path, training: dict | None = None, loss_trace=None) -> None:
    """Write the binary container and its JSON sidecar.

    The channel count and the dropout rate are read from ``net``, which
    must be the ``stack`` for them: any other network, an arch
    outside ``ARCHITECTURES`` included, is refused before the file opens.
    """
    channels = next((layer.c_out for layer in net.layers if isinstance(layer, Conv3x3)), 0)
    rate = next((layer.rate for layer in net.layers if isinstance(layer, Dropout)), 0.0)
    try:
        stock = stack(net.arch, channels, rate)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"not a stock network: {exc}") from None
    pairs = enumerate(zip_longest(_layout(net), _layout(stock)))
    differs = next((i for i, (got, want) in pairs if got != want), None)
    if differs is not None:
        raise ModelFormatError(
            f"not a stock network: layer {differs} differs from the {net.arch} "
            f"with channels={channels} and dropout_rate={rate}"
        )
    arch = net.arch.encode("utf-8")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IH", FORMAT_VERSION, len(arch)))
        fh.write(arch)
        fh.write(struct.pack("<Id", channels, rate))
        for params, name in _stored(net):
            fh.write(np.ascontiguousarray(params[name], dtype="<f4").tobytes())
    sidecar = {
        "format_version": FORMAT_VERSION,
        "arch": net.arch,
        "channels": channels,
        "dropout_rate": rate,
        "layers": [layer.kind for layer in net.layers],
        "training": training,
        "loss_trace": list(loss_trace) if loss_trace is not None else None,
    }
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _read(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ModelFormatError("truncated model file")
    return data


def load_network(path) -> Network:
    """Rebuild a Network from the binary container, bit-exactly."""
    with open(path, "rb") as fh:
        if _read(fh, len(MAGIC)) != MAGIC:
            raise ModelFormatError("bad magic bytes; not a network container")
        (version,) = struct.unpack("<I", _read(fh, 4))
        if version != FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported container version {version} (expected {FORMAT_VERSION})"
            )
        (arch_len,) = struct.unpack("<H", _read(fh, 2))
        try:
            arch = _read(fh, arch_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(
                f"arch name is not valid utf-8 (bad byte at offset {exc.start})"
            ) from None
        channels, rate = struct.unpack("<Id", _read(fh, 12))
        try:
            net = stack(arch, channels, rate)
        except ValueError as exc:
            raise ModelFormatError(f"invalid model header: {exc}") from None
        stored = _stored(net)
        need = 4 * sum(params[name].size for params, name in stored)
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if remaining < need:
            raise ModelFormatError(
                f"truncated model file: the parameters of a {arch} with {channels} "
                f"channels need {need} bytes, but only {remaining} remain"
            )
        if remaining > need:
            raise ModelFormatError(
                f"trailing bytes after the parameters: {remaining - need} beyond the {need} "
                f"that a {arch} with {channels} channels needs"
            )
        data = fh.read(need)
    offset = 0
    for params, name in stored:
        param = np.frombuffer(data, "<f4", params[name].size, offset)
        params[name] = param.reshape(params[name].shape).astype(PARAM_DTYPE)
        offset += param.nbytes
    return net

"""Flat binary network container plus a JSON sidecar.

Binary layout (all integers little-endian):

    magic            8 bytes  b"MCDENET1"
    format version   uint32
    arch name        uint16 length + utf-8 bytes
    layer count      uint32
    layer records    one per layer: uint32 kind code, uint32 a,
                     uint32 b, float64 f (a/b carry channel counts,
                     f carries the dropout rate; unused slots are 0)
    weight blobs     per layer: uint32 param count, then per param:
                     uint8 name length + ascii name, uint8 ndim,
                     uint32 dims, raw float32 data (<f4, C order)

Format version 2 stores float32 parameters; version 1 stored float64 and
is rejected.  Weights round-trip bit-exactly.  Loading checks every
layer record before it builds a layer, so a malformed header fails with
ModelFormatError instead of a large allocation.  The sidecar at
``<path>.json`` describes the architecture and, when provided, the
training config and loss trace; it is documentation, the binary alone
rebuilds the network.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from mcde.nn.layers import (
    PARAM_DTYPE,
    Affine,
    Conv3x3,
    Dropout,
    MaxPool,
    MeanPool,
    PositiveHead,
    Relu,
)
from mcde.nn.network import Network

__all__ = ["ModelFormatError", "save_network", "load_network", "FORMAT_VERSION"]

MAGIC = b"MCDENET1"
FORMAT_VERSION = 2

# Kind code -> (layer class, the constructor fields that the record's
# a, b and f slots hold; None marks an unused slot, written as 0).  The
# binary record and the sidecar are both written and read from here.
_LAYERS = {
    1: (Conv3x3, ("c_in", "c_out", None)),
    2: (Affine, ("c_in", "c_out", None)),
    3: (Relu, (None, None, None)),
    4: (MeanPool, (None, None, None)),
    5: (MaxPool, (None, None, None)),
    6: (Dropout, (None, None, "rate")),
    7: (PositiveHead, (None, None, None)),
}
_CODES = {cls.kind: code for code, (cls, _) in _LAYERS.items()}


class ModelFormatError(Exception):
    """Malformed, truncated, or version-incompatible model file."""


def _fields(layer) -> dict:
    _, slots = _LAYERS[_CODES[layer.kind]]
    return {name: getattr(layer, name) for name in slots if name}


def _record(layer) -> tuple:
    code = _CODES[layer.kind]
    return (code, *(getattr(layer, name) if name else 0 for name in _LAYERS[code][1]))


def save_network(net: Network, path, training: dict | None = None, loss_trace=None) -> None:
    """Write the binary container and its JSON sidecar.  A network that
    ``load_network`` would reject raises its error before anything is written."""
    records = [_record(layer) for layer in net.layers]
    _check_records(records, math.inf)
    try:
        arch = net.arch.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ModelFormatError(
            f"arch name is not valid utf-8 (bad character at offset {exc.start})"
        ) from None
    if len(arch) > 0xFFFF:
        raise ModelFormatError(f"arch name is {len(arch)} utf-8 bytes, over the 65535 it may hold")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<H", len(arch)))
        fh.write(arch)
        fh.write(struct.pack("<I", len(net.layers)))
        for record in records:
            fh.write(struct.pack("<IIId", *record))
        for layer in net.layers:
            names = sorted(layer.params)
            fh.write(struct.pack("<I", len(names)))
            for name in names:
                arr = np.ascontiguousarray(layer.params[name], dtype="<f4")
                encoded = name.encode("ascii")
                fh.write(struct.pack("<B", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.tobytes())
    sidecar = {
        "format_version": FORMAT_VERSION,
        "arch": net.arch,
        "layers": [{"kind": layer.kind, **_fields(layer)} for layer in net.layers],
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


def _decode(data: bytes, encoding: str, field: str) -> str:
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise ModelFormatError(
            f"{field} is not valid {encoding} (bad byte at offset {exc.start})"
        ) from exc


def _check_records(records, remaining: int) -> list:
    """Each layer record as (layer class, constructor kwargs).

    Runs before any layer is built.  Rejects, naming the layer, an
    unknown kind code, a conv or affine whose c_in is not 3 (the first)
    or the previous one's c_out, parameters that need more than the
    ``remaining`` bytes of the file, a second pooling layer, a conv
    after the pooling layer, a dropout before the pooling layer that the
    pool does not directly follow (MC inference would then copy the
    feature map once per pass), a last layer that is not the positive
    head, a stack without a pooling layer, and a chain whose last conv
    or affine does not give 3 channels.
    """
    specs = []
    channels = 3
    channel_layer = None
    pool_layer = None
    spatial_dropout = None
    param_bytes = 0
    for i, (code, *values) in enumerate(records):
        if code not in _LAYERS:
            raise ModelFormatError(f"layer {i}: unknown layer kind code {code}")
        cls, slots = _LAYERS[code]
        if pool_layer is not None and cls in (MeanPool, MaxPool, Conv3x3):
            raise ModelFormatError(
                f"layer {i}: {cls.kind} after the {specs[pool_layer][0].kind} "
                f"at layer {pool_layer}"
            )
        if spatial_dropout is not None and cls not in (MeanPool, MaxPool):
            raise ModelFormatError(
                f"layer {spatial_dropout}: dropout before the pool is followed by "
                f"{cls.kind}, not by the pool"
            )
        spatial_dropout = i if cls is Dropout and pool_layer is None else None
        if cls in (MeanPool, MaxPool):
            pool_layer = i
        kwargs = {name: value for name, value in zip(slots, values) if name}
        if "c_in" in kwargs:
            if kwargs["c_in"] != channels:
                raise ModelFormatError(
                    f"layer {i}: {cls.kind} takes {kwargs['c_in']} channels "
                    f"but its input has {channels}"
                )
            channels = kwargs["c_out"]
            channel_layer = i
            shapes = cls.param_shapes(**kwargs).values()
            param_bytes += 4 * sum(math.prod(shape) for shape in shapes)
            if param_bytes > remaining:
                raise ModelFormatError(
                    f"truncated model file: the parameters of layers 0-{i} need "
                    f"{param_bytes} bytes, but only {remaining} remain"
                )
        specs.append((cls, kwargs))
    if not specs:
        raise ModelFormatError("model file has no layers")
    if specs[-1][0] is not PositiveHead:
        raise ModelFormatError(
            f"layer {len(specs) - 1}: the last layer is {specs[-1][0].kind}, "
            f"not {PositiveHead.kind}"
        )
    if pool_layer is None:
        raise ModelFormatError(
            f"layer {len(specs) - 1}: no {MeanPool.kind} or {MaxPool.kind} "
            f"before the {PositiveHead.kind}"
        )
    if channels != 3:
        raise ModelFormatError(
            f"layer {channel_layer}: {specs[channel_layer][0].kind} gives {channels} "
            "channels, but the chain must end at 3"
        )
    return specs


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
        arch = _decode(_read(fh, arch_len), "utf-8", "arch name")
        (n_layers,) = struct.unpack("<I", _read(fh, 4))
        records = [struct.unpack("<IIId", _read(fh, 20)) for _ in range(n_layers)]
        specs = _check_records(records, os.fstat(fh.fileno()).st_size - fh.tell())
        layers = []
        for i, (cls, kwargs) in enumerate(specs):
            try:
                layers.append(cls(**kwargs))
            except ValueError as exc:
                raise ModelFormatError(f"invalid record for layer {i}: {exc}") from exc
        for i, layer in enumerate(layers):
            (n_params,) = struct.unpack("<I", _read(fh, 4))
            for _ in range(n_params):
                (name_len,) = struct.unpack("<B", _read(fh, 1))
                name = _decode(_read(fh, name_len), "ascii", f"parameter name of layer {i}")
                (ndim,) = struct.unpack("<B", _read(fh, 1))
                shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim))
                held = layer.params.get(name)
                if held is None or held.shape != shape:
                    raise ModelFormatError(
                        f"parameter {name!r} of layer {i} does not fit its layer record"
                    )
                data = _read(fh, 4 * held.size)
                param = np.frombuffer(data, dtype="<f4").reshape(shape)
                layer.params[name] = param.astype(PARAM_DTYPE)
        if fh.read(1):
            raise ModelFormatError("trailing bytes after weight blobs")
    return Network(layers, arch=arch)

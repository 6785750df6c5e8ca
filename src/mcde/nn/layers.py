"""Layer primitives with plain numpy forward/backward pairs.

Activations are float64 throughout.  Spatial tensors are channels-last
(H, W, C); pooled activations are flat (C,) vectors.  ``Affine``,
``Relu`` and ``PositiveHead`` also take a (ν, C) stack of such vectors,
one per MC pass, and map each row bit for bit as they map it alone.
Every layer has
``forward(x, rng=None) -> (y, cache)`` and ``backward(dy, cache,
need_dx=True) -> (dx, grads)``, with ``grads`` keyed like ``params``.
With ``need_dx`` false the input gradient is neither computed nor
returned (``dx`` is None): the first layer of a network has no one to
pass it to.  The cache holds only what the forward computes anyway,
so it is always returned.  Only
``Dropout`` reads ``rng``: it draws its mask from it, and is the
identity without one.  Layers are pure functions of their input plus
that RNG, which keeps every forward pass bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PassSeed",
    "Conv3x3",
    "Affine",
    "Relu",
    "MeanPool",
    "MaxPool",
    "Dropout",
    "PositiveHead",
]


@dataclass(frozen=True)
class PassSeed:
    """Seed material for one stochastic forward pass.

    Dropout masks are a pure function of (base_seed, pass_index,
    layer_index), so passes can be replayed or scheduled in any order
    without coordination.
    """

    base_seed: int
    pass_index: int = 0

    def __post_init__(self) -> None:
        if self.pass_index < 0:
            raise ValueError("pass_index must be non-negative")


class Conv3x3:
    """3x3 same-padding convolution, stride 1, channels-last."""

    kind = "conv3x3"

    @staticmethod
    def param_shapes(c_in: int, c_out: int) -> dict[str, tuple[int, ...]]:
        return {"W": (3, 3, c_in, c_out), "b": (c_out,)}

    def __init__(self, c_in: int, c_out: int):
        self.c_in = c_in
        self.c_out = c_out
        self.params = {k: np.zeros(v) for k, v in self.param_shapes(c_in, c_out).items()}

    def init(self, rng: np.random.Generator) -> None:
        span = np.sqrt(6.0 / (9 * self.c_in + 9 * self.c_out))
        self.params["W"] = rng.uniform(-span, span, (3, 3, self.c_in, self.c_out))
        self.params["b"] = np.zeros(self.c_out)

    def forward(self, x, rng=None):
        h, w, _ = x.shape
        xp = np.zeros((h + 2, w + 2, self.c_in))
        xp[1:-1, 1:-1] = x
        weight = self.params["W"]
        y = np.broadcast_to(self.params["b"], (h, w, self.c_out)).copy()
        for ki in range(3):
            for kj in range(3):
                y += xp[ki : ki + h, kj : kj + w] @ weight[ki, kj]
        return y, xp

    def backward(self, dy, cache, need_dx=True):
        xp = cache
        h, w, _ = dy.shape
        weight = self.params["W"]
        d_weight = np.empty_like(weight)
        dy_flat = dy.reshape(-1, self.c_out)
        for ki in range(3):
            for kj in range(3):
                patch = xp[ki : ki + h, kj : kj + w].reshape(-1, self.c_in)
                d_weight[ki, kj] = patch.T @ dy_flat
        grads = {"W": d_weight, "b": dy.sum(axis=(0, 1))}
        if not need_dx:
            return None, grads
        dxp = np.zeros_like(xp)
        for ki in range(3):
            for kj in range(3):
                dxp[ki : ki + h, kj : kj + w] += dy @ weight[ki, kj].T
        return dxp[1:-1, 1:-1], grads


class Affine:
    """Linear map plus bias over the channel axis.

    Acts per pixel on spatial maps (pointwise affine) and as a dense
    layer on pooled vectors; the math is identical.
    """

    kind = "affine"

    @staticmethod
    def param_shapes(c_in: int, c_out: int) -> dict[str, tuple[int, ...]]:
        return {"W": (c_in, c_out), "b": (c_out,)}

    def __init__(self, c_in: int, c_out: int):
        self.c_in = c_in
        self.c_out = c_out
        self.params = {k: np.zeros(v) for k, v in self.param_shapes(c_in, c_out).items()}

    def init(self, rng: np.random.Generator) -> None:
        span = np.sqrt(6.0 / (self.c_in + self.c_out))
        self.params["W"] = rng.uniform(-span, span, (self.c_in, self.c_out))
        self.params["b"] = np.zeros(self.c_out)

    def forward(self, x, rng=None):
        if x.ndim == 2:
            # One gemv per row, as for a (C,) vector alone; a (ν, C) @ W
            # gemm rounds differently.
            y = (x[:, None, :] @ self.params["W"])[:, 0, :]
        else:
            y = x @ self.params["W"]
        return y + self.params["b"], x

    def backward(self, dy, cache, need_dx=True):
        x = cache
        x_flat = x.reshape(-1, self.c_in)
        dy_flat = dy.reshape(-1, self.c_out)
        dx = dy @ self.params["W"].T if need_dx else None
        return dx, {"W": x_flat.T @ dy_flat, "b": dy_flat.sum(axis=0)}


class Relu:
    kind = "relu"

    def __init__(self):
        self.params = {}

    def forward(self, x, rng=None):
        y = np.maximum(x, 0.0)
        return y, y

    def backward(self, dy, cache, need_dx=True):
        return (dy * (cache > 0.0) if need_dx else None), {}


class MeanPool:
    """Global spatial mean: (H, W, C) -> (C,)."""

    kind = "mean-pool"

    def __init__(self):
        self.params = {}

    def forward(self, x, rng=None):
        return x.mean(axis=(0, 1)), x.shape

    def backward(self, dy, cache, need_dx=True):
        if not need_dx:
            return None, {}
        h, w, _ = cache
        return np.broadcast_to(dy / (h * w), cache).copy(), {}


class MaxPool:
    """Global spatial max: (H, W, C) -> (C,).

    Ties route the gradient to the first (row-major) maximum, so the
    backward pass is deterministic.
    """

    kind = "max-pool"

    def __init__(self):
        self.params = {}

    def forward(self, x, rng=None):
        flat = x.reshape(-1, x.shape[-1])
        idx = flat.argmax(axis=0)
        y = flat[idx, np.arange(x.shape[-1])]
        return y, (x.shape, idx)

    def backward(self, dy, cache, need_dx=True):
        if not need_dx:
            return None, {}
        shape, idx = cache
        dflat = np.zeros((shape[0] * shape[1], shape[2]))
        dflat[idx, np.arange(shape[2])] = dy
        return dflat.reshape(shape), {}


class Dropout:
    """Inverted dropout: kept units are scaled by 1/(1-rate).

    On spatial maps the mask is drawn per channel (one Bernoulli per
    feature map), so the spread it induces survives global pooling and
    stays on a comparable scale wherever the layer sits in the stack.
    On vectors the mask is per element.  The mask is drawn from the
    ``rng`` passed to ``forward``; without one, or at rate 0, the layer
    is an exact identity and its cache is None.
    """

    kind = "dropout"

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate
        self.params = {}

    def keep(self, rng, size):
        """One pass's keep mask over ``size`` channels or elements."""
        return rng.random(size) >= self.rate

    def forward(self, x, rng=None):
        if rng is None or self.rate == 0.0:
            return x, None
        keep = self.keep(rng, x.shape[-1] if x.ndim == 3 else x.shape)
        scale = keep / (1.0 - self.rate)
        return x * scale, scale

    def backward(self, dy, cache, need_dx=True):
        if not need_dx:
            return None, {}
        return (dy if cache is None else dy * cache), {}


class PositiveHead:
    """Maps raw scores to a strictly positive unit direction.

    exp then L2 normalization.  The exponent is shifted by the max
    component (the output is invariant to that shift) and floored at
    -700 so every output component stays strictly positive for any
    finite input; the floor only engages for astronomically dominated
    components and carries no gradient.
    """

    kind = "positive-head"

    def __init__(self):
        self.params = {}

    def forward(self, x, rng=None):
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(np.maximum(shifted, -700.0))
        norm = np.linalg.norm(e, axis=-1, keepdims=True)
        y = e / norm
        return y, (e, y, norm)

    def backward(self, dy, cache, need_dx=True):
        if not need_dx:
            return None, {}
        e, y, norm = cache
        radial = np.sum(y * dy, axis=-1, keepdims=True)
        return e * (dy - y * radial) / norm, {}

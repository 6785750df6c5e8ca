"""Layer primitives with plain numpy forward/backward pairs.

Parameters are float32, and a layer computes in the dtype of its input,
which ``Network`` casts to its parameters' dtype: float32 for every built
or loaded network, float64 for a test's float64 copy.  Only
``PositiveHead`` computes in float64 whatever its input, so the estimate
and the loss are float64.  Activations carry one leading row axis, one
image or MC pass per row: channels-last (R, H, W, C) maps and pooled
(R, C) vectors.  Row k of a forward is bit for bit the forward of row k
alone.  Every layer has ``forward(x) -> (y, cache)`` and ``backward(dy,
cache) -> (dx, grads)``, with ``grads`` keyed like ``params`` and holding
one gradient per row, (R, *param shape), which ``Network.backward`` sums
in row order.  A backward pass ends at the lowest layer with parameters:
no layer below it is called, and it has no one to pass its input
gradient to, so the layers with parameters, ``Conv3x3`` and ``Affine``,
can be asked to skip it.  The cache holds only what the forward computes
anyway, so it is always returned.  ``Dropout`` alone takes one more
argument, the keep mask, which ``Network`` draws and shapes; it is the
identity without one.  Layers are pure functions of their input and
that mask, which keeps every pass bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from mcde._check import check_real

__all__ = [
    "Conv3x3",
    "Affine",
    "Relu",
    "MeanPool",
    "MaxPool",
    "Dropout",
    "PositiveHead",
]

# The dtype every layer allocates its parameters in.  ``init`` draws in
# float64 and rounds, so the weights come from the same random stream
# whatever this is.
PARAM_DTYPE = np.float32

# Conv3x3's 3x3 windows take nine times its input, so ``_windows`` copies
# them in blocks of rows of at most this many bytes.  A stock call is one
# block of at most 64 KiB of pixels (``network._BLOCK_BYTES``): a training
# block, whose windows the backward reuses (221 KB at 16x16 with 8 rows,
# 442 KB at 64x64), or a block of MC scenes.  A conv after a Dropout, with
# one row per MC pass, is several.
_WINDOW_BYTES = 1024 * 1024


class Conv3x3:
    """3x3 same-padding convolution, stride 1, channels-last, as one
    matrix product per row (Chellapilla, Puri & Simard 2006).

    The forward multiplies each row's (H*W, 9*c_in) matrix of 3x3
    windows (``_windows``) by the weights as a (9*c_in, c_out) matrix and
    adds the bias.  The backward multiplies the same windows by the
    output gradient for each row's weight gradient: the forward's, which
    its cache keeps when they form one block (every stock training
    step), or else rebuilt block by block from the cached padded input,
    so a large input holds no extra memory.  The input gradient, not
    asked of a network's lowest layer with parameters, takes one product
    per tap.  A row's bytes depend neither on the other rows nor on the
    blocks the windows are copied in.
    """

    kind = "conv3x3"

    def __init__(self, c_in: int, c_out: int):
        self.c_in = c_in
        self.c_out = c_out
        self.params = {"W": _zeros(3, 3, c_in, c_out), "b": _zeros(c_out)}

    def init(self, rng: np.random.Generator) -> None:
        span = np.sqrt(6.0 / (9 * self.c_in + 9 * self.c_out))
        self.params["W"] = rng.uniform(-span, span, self.params["W"].shape).astype(PARAM_DTYPE)

    def forward(self, x):
        *lead, h, w, _ = x.shape
        xp = np.zeros((*lead, h + 2, w + 2, self.c_in), x.dtype)
        xp[..., 1:-1, 1:-1, :] = x
        xp = xp.reshape(-1, h + 2, w + 2, self.c_in)
        weight = self.params["W"].reshape(-1, self.c_out)
        y = np.empty((len(xp), h * w, self.c_out), x.dtype)
        for rows, windows in _windows(xp, h, w):
            np.matmul(windows, weight, out=y[rows])
        y += self.params["b"]
        one_block = windows if rows.start == 0 else None  # the last block is the first
        return y.reshape(*lead, h, w, self.c_out), (xp, one_block)

    def backward(self, dy, cache, need_dx=True):
        xp, one_block = cache
        n, h, w, _ = dy.shape
        weight = self.params["W"]
        d_weight = np.empty((n, 9 * self.c_in, self.c_out), xp.dtype)
        dy_rows = dy.reshape(n, -1, self.c_out)
        blocks = _windows(xp, h, w) if one_block is None else [(slice(0, n), one_block)]
        for rows, windows in blocks:
            np.matmul(windows.transpose(0, 2, 1), dy_rows[rows], out=d_weight[rows])
        grads = {"W": d_weight.reshape(n, *weight.shape), "b": _pixel_sums(dy)}
        if not need_dx:
            return None, grads
        dxp = np.zeros_like(xp)
        for ki in range(3):
            for kj in range(3):
                dxp[:, ki : ki + h, kj : kj + w] += dy @ weight[ki, kj].T
        return dxp[:, 1:-1, 1:-1], grads


def _windows(xp, h, w):
    """(rows, windows) per block of rows of padded (R, h + 2, w + 2, C) maps.

    ``windows`` is an (r, h * w, 9 * C) copy of each pixel's 3x3 window,
    ordered (ki, kj, c) like a conv weight's first three axes.  It comes
    from one strided view of ``xp`` whose elements are the 3 * C values
    of a window's row, contiguous in ``xp``, so numpy copies a row of a
    window at a time, not a channel.  A block holds as many rows as fit
    in ``_WINDOW_BYTES``, and at least one.
    """
    n, _, _, c = xp.shape
    s_r, s_h, s_w, _ = xp.strides
    run = np.dtype((np.void, 3 * c * xp.itemsize))
    step = max(1, _WINDOW_BYTES // (3 * h * w * run.itemsize))
    for r in range(0, n, step):
        k = min(step, n - r)
        view = np.ndarray((k, h, w, 3), run, xp, r * s_r, (s_r, s_h, s_w, s_h))
        yield slice(r, r + k), view.copy().view(xp.dtype).reshape(k, h * w, 9 * c)


class Affine:
    """Linear map plus bias over the channel axis.

    Acts per pixel on spatial maps (pointwise affine) and as a dense
    layer on pooled vectors; the math is identical.
    """

    kind = "affine"

    def __init__(self, c_in: int, c_out: int):
        self.c_in = c_in
        self.c_out = c_out
        self.params = {"W": _zeros(c_in, c_out), "b": _zeros(c_out)}

    def init(self, rng: np.random.Generator) -> None:
        span = np.sqrt(6.0 / (self.c_in + self.c_out))
        self.params["W"] = rng.uniform(-span, span, self.params["W"].shape).astype(PARAM_DTYPE)

    def forward(self, x):
        return _per_row(x, self.params["W"]) + self.params["b"], x

    def backward(self, dy, cache, need_dx=True):
        x_rows = cache.reshape(len(cache), -1, self.c_in)
        dy_rows = dy.reshape(len(dy), -1, self.c_out)
        dx = _per_row(dy, self.params["W"].T) if need_dx else None
        return dx, {"W": x_rows.transpose(0, 2, 1) @ dy_rows, "b": dy_rows.sum(axis=1)}


def _zeros(*shape: int) -> np.ndarray:
    return np.zeros(shape, PARAM_DTYPE)


def _per_row(x, matrix):
    """``x @ matrix``, with one gemv per row on (R, C) vectors: a
    (R, C) @ matrix gemm rounds differently from each row alone."""
    return (x[:, None, :] @ matrix)[:, 0, :] if x.ndim == 2 else x @ matrix


class Relu:
    kind = "relu"

    def __init__(self):
        self.params = {}

    def forward(self, x):
        y = np.maximum(x, 0.0)
        return y, y

    def backward(self, dy, cache):
        return dy * (cache > 0.0), {}


def _pixel_sums(x):
    """Sums over the pixels of (..., H, W, C) maps, one ``ones(H*W)``
    product per row: numpy's own sum goes pixel by pixel over a map of
    several channels, at 64x64 about six times slower."""
    *lead, h, w, c = x.shape
    return np.ones(h * w, x.dtype) @ x.reshape(*lead, h * w, c)


class MeanPool:
    """Global spatial mean: (R, H, W, C) -> (R, C)."""

    kind = "mean-pool"

    def __init__(self):
        self.params = {}

    def forward(self, x):
        *_, h, w, _ = x.shape
        return _pixel_sums(x) / (h * w), x.shape

    def backward(self, dy, cache):
        *_, h, w, _ = cache
        return np.repeat((dy / (h * w))[..., None, :], h * w, axis=-2).reshape(cache), {}


class MaxPool:
    """Global spatial max: (R, H, W, C) -> (R, C).

    Ties route the gradient to the first (row-major) maximum, so the
    backward pass is deterministic.
    """

    kind = "max-pool"

    def __init__(self):
        self.params = {}

    def forward(self, x):
        flat = x.reshape(*x.shape[:-3], -1, x.shape[-1])
        idx = flat.argmax(axis=-2)
        y = np.take_along_axis(flat, idx[..., None, :], axis=-2)[..., 0, :]
        return y, (x.shape, idx)

    def backward(self, dy, cache):
        shape, idx = cache
        dflat = np.zeros((*shape[:-3], shape[-3] * shape[-2], shape[-1]), dy.dtype)
        np.put_along_axis(dflat, idx[..., None, :], dy[..., None, :], axis=-2)
        return dflat.reshape(shape), {}


class Dropout:
    """Inverted dropout: kept units are scaled by 1/(1-rate), rounded to
    the input's dtype.

    ``forward`` takes the keep mask, already shaped by ``Network`` to
    broadcast against ``x``: per channel on spatial maps (one Bernoulli
    per feature map), so the spread it induces survives global pooling
    and stays on a comparable scale wherever the layer sits in the
    stack, and per element on vectors.  Without a mask the layer is an
    exact identity and its cache is None.
    """

    kind = "dropout"

    def __init__(self, rate: float):
        check_real("dropout_rate", rate, 0.0, 1.0)
        self.rate = rate
        self.params = {}

    def forward(self, x, keep=None):
        if keep is None:
            return x, None
        scale = np.multiply(keep, 1.0 / (1.0 - self.rate), dtype=x.dtype)
        return x * scale, scale

    def backward(self, dy, cache):
        return (dy if cache is None else dy * cache), {}


class PositiveHead:
    """Maps raw scores to a strictly positive unit direction.

    exp then L2 normalization, in float64 whatever the input's dtype:
    the estimate and the loss are float64, and ``dx`` comes back in the
    input's dtype.  The exponent is shifted by the max component (the
    output is invariant to that shift) and floored at -700 so every
    output component stays strictly positive for any finite input; the
    floor only engages for astronomically dominated components and
    carries no gradient.
    """

    kind = "positive-head"

    def __init__(self):
        self.params = {}

    def forward(self, x):
        shifted = np.subtract(x, x.max(axis=-1, keepdims=True), dtype=np.float64)
        e = np.exp(np.maximum(shifted, -700.0))
        norm = np.linalg.norm(e, axis=-1, keepdims=True)
        y = e / norm
        return y, (e, y, norm, x.dtype)

    def backward(self, dy, cache):
        e, y, norm, dtype = cache
        radial = np.sum(y * dy, axis=-1, keepdims=True)
        return (e * (dy - y * radial) / norm).astype(dtype, copy=False), {}

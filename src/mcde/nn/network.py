"""Network container: ordered layers, MC and deterministic forwards, backprop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from mcde._check import check_int
from mcde.nn.layers import PARAM_DTYPE, Conv3x3, Dropout, MaxPool, MeanPool
from mcde.seeding import MAX_SEED

__all__ = ["MAX_NU", "Mode", "Network", "NumericError", "PassSeed", "cosine_loss"]

# The one memory budget of a pass: ``_block_rows`` fits in it the largest
# array that one row of a block builds.  A stock network's is its first
# conv's windows, 27 float32 values a pixel, so 16x16 training batches of
# 8 (221 KB) run whole and 64x64 images (442 KB) one by one: 1.09-1.38
# (g-net) and 0.94-1.16 ms (m-net) per image, against 1.04-1.31 and
# 0.88-1.01 ms in batches of 8, peaking at 39 against 44-45 MiB (2-core
# VM, one thread, 5 runs each).  MC scenes run 21 at 16x16 or one at
# 64x64: all 400 of band-shift's in one block took its perfbench peak RSS
# from 45.1 to 59.5 MiB.
_BLOCK_BYTES = 9 * 64 * 1024

# MC passes per ``scene_passes`` call, about 30x the default nu: from the
# first Dropout on, masks and activations hold one row per pass.  At
# nu=1000, g-net and m-net peak at 0.7 MiB on one 64x64 scene and at 4.3
# and 4.0 MiB on 21 16x16 scenes (tracemalloc).
MAX_NU = 1000

# Mask keys are numpy uint64 arrays, which wrap mod 2**64 by themselves,
# and take their constants as numpy scalars, which a ufunc does not
# convert per call.  _GAMMA is splitmix64's Weyl increment (Steele et
# al. 2014) and _LAYER_GAMMA spaces the layers apart.
_KEY_LIMIT = MAX_SEED + 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_LAYER_GAMMA = 0xD1B54A32D192ED03
_S30, _M1, _S27, _M2, _S31 = np.array(
    [30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31], dtype=np.uint64
)


def _mix(z):
    """splitmix64's finalizer, in place on a uint64 array: a bijection
    after which every output bit depends on every input bit."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


@dataclass(frozen=True)
class PassSeed:
    """Seed material for one stochastic forward pass.

    Dropout masks are a pure function of (base_seed, pass_index,
    layer_index), so passes can be replayed or scheduled in any order
    without coordination.  Both fields are uint64 key material: integers
    in [0, 2**64).
    """

    base_seed: int
    pass_index: int = 0

    def __post_init__(self) -> None:
        check_int("base_seed", self.base_seed, 0, MAX_SEED)
        check_int("pass_index", self.pass_index, 0, MAX_SEED)


def _check_passes(first, count) -> None:
    """Keys are uint64: passes ``first`` to ``first + count - 1`` must lie
    in [0, 2**64)."""
    check_int("first", first, 0, MAX_SEED)
    check_int("count", count, 1)
    if first + count > _KEY_LIMIT:
        raise ValueError(f"passes {first} to {first + count - 1} must lie in [0, 2**64)")


class Mode(Enum):
    """``Network.forward``'s choice: dropout from a pass seed, or none."""

    MC = "mc"
    DETERMINISTIC = "deterministic"


class NumericError(RuntimeError):
    """Non-finite activations or gradients, annotated with the layer index."""


def cosine_loss(pred, gt):
    """1 minus the inner product of unit vectors, per row; 0 iff they coincide.

    A (1, 3) @ (3, 1) product per row rounds as ``np.dot`` does, and a
    summed elementwise product does not."""
    return 1.0 - (pred[..., None, :] @ gt[..., :, None])[..., 0, 0]


@dataclass
class Network:
    """Ordered layer stack mapping (H, W, 3) images to illuminants.

    ``_run`` is the one layer loop behind ``forward``, ``scene_passes``
    (and its one-scene case ``forward_passes``) and ``backward``.  Its
    activations carry one leading row axis: a row is one image of a
    mini-batch, or one scene that its MC passes share until a Dropout's
    masks split it.  The pass seed alone turns dropout
    on: under a ``PassSeed`` the network draws each ``Dropout``'s mask
    from (seed, layer index), in training and MC inference alike, and
    hands it to the layer shaped to broadcast against its input; without
    one, dropout is the identity.  ``_keeps`` is the one place a mask is
    drawn.

    Single-writer: training mutates ``layers[i].params`` in place, so a
    network must not be trained and evaluated concurrently.  Forward
    passes themselves are read-only and safe to replay.
    """

    layers: list = field(default_factory=list)
    arch: str = "custom"

    def forward(self, pixels, mode: Mode = Mode.DETERMINISTIC, seed: PassSeed | None = None) -> np.ndarray:
        """Run the stack and return the (3,) estimate.

        MC mode runs dropout under ``seed`` and therefore requires one;
        deterministic mode ignores ``seed`` and disables dropout.
        """
        if mode is Mode.MC and seed is None:
            raise ValueError("mc forward passes require a PassSeed")
        x = self._images(np.asarray(pixels)[None])
        if mode is not Mode.MC:
            return self._run(x, None, 0, 1)[0]
        return self._run(x, [seed.base_seed], seed.pass_index, 1)[0]

    def forward_passes(self, pixels, seed: PassSeed, count: int) -> np.ndarray:
        """MC passes ``seed.pass_index`` to ``seed.pass_index + count - 1``
        of ``seed.base_seed``, as a (count, 3) array: ``scene_passes`` of
        the one scene ``pixels``.

        Row k equals ``forward(pixels, Mode.MC, PassSeed(seed.base_seed,
        seed.pass_index + k))`` bit for bit; each layer runs once for all passes.
        """
        pixels = np.asarray(pixels)[None]
        return self.scene_passes(pixels, [seed.base_seed], count, seed.pass_index)[0]

    def scene_passes(self, pixels, base_seeds, count: int, first: int = 0) -> np.ndarray:
        """MC passes ``first`` to ``first + count - 1`` of each scene under
        its own base seed, as an (S, count, 3) array.

        Row (s, k) of scene s of ``pixels`` (a list or a stacked array)
        equals ``forward(pixels[s], Mode.MC, PassSeed(base_seeds[s],
        first + k))`` bit for bit.  ``count`` is at most ``MAX_NU``.  Each
        layer runs once per block for all passes of ``_block_rows``' rows
        of scenes, or, where it splits them, of a scene's rows of passes.
        """
        if not len(pixels):
            raise ValueError("scene_passes needs at least one scene")
        if len(base_seeds) != len(pixels):
            raise ValueError(f"one seed per scene: got {len(base_seeds)} for {len(pixels)} scenes")
        for base in base_seeds:
            check_int("base_seed", base, 0, MAX_SEED)
        _check_passes(first, count)
        if count > MAX_NU:
            raise ValueError(f"count must be at most MAX_NU = {MAX_NU}, got {count}")
        step, split = self._block_rows(pixels)
        scenes, passes = (1, step) if split else (step, count)
        outs = []
        for r in range(0, len(pixels), scenes):
            x, bases = self._images(pixels[r : r + scenes]), base_seeds[r : r + scenes]
            for k in range(first, first + count, passes):
                out = self._run(x, bases, k, min(passes, first + count - k))
                outs.append(out.reshape(len(x), -1, *out.shape[1:]))  # (r, passes or 1, ...)
        joined = np.concatenate(outs, axis=int(split)) if len(outs) > 1 else outs[0]
        out = joined.reshape(len(pixels), -1, *out.shape[1:])  # (S, count or 1, ...)
        return out if out.shape[1] == count else np.repeat(out, count, axis=1)

    def _dtype(self):
        """The dtype of the parameters, which every layer computes in
        (``PARAM_DTYPE`` for a network without any)."""
        dtypes = (p.dtype for layer in self.layers for p in layer.params.values())
        return next(dtypes, np.dtype(PARAM_DTYPE))

    def _block_rows(self, pixels) -> tuple[int, bool]:
        """(rows, split) for images shaped like ``pixels[0]``.  A block of
        ``rows`` keeps the largest array one row builds before the first
        pool (per pixel, its channels, a conv's ``9 * c_in`` window values
        or a layer's ``c_out``) within ``_BLOCK_BYTES``, and has one row
        at least.  ``split``: a Dropout that no pool directly follows
        turns a scene's row into one row per MC pass there."""
        shape, pools = np.shape(pixels[0]), (MeanPool, MaxPool)  # _images checks each block
        widths, split = [*shape[-1:]], False
        for layer, after in zip(self.layers, [*self.layers[1:], None]):
            if isinstance(layer, pools):
                break
            if isinstance(layer, Conv3x3):
                widths.append(9 * layer.c_in)
            widths.append(getattr(layer, "c_out", 0))
            split |= getattr(layer, "rate", 0.0) > 0.0 and not isinstance(after, pools)
        row_bytes = self._dtype().itemsize * math.prod(shape[:-1]) * max(widths, default=1)
        return max(1, _BLOCK_BYTES // max(row_bytes, 1)), split

    def _images(self, pixels) -> np.ndarray:
        """``pixels`` in ``_dtype()``, checked to stack non-empty (H, W, c_in)
        images: float32 pixels into a float32 network are not copied.

        ``c_in`` comes from the first layer that has one, if any.
        """
        x = np.asarray(pixels, dtype=self._dtype())
        c_in = next((layer.c_in for layer in self.layers if hasattr(layer, "c_in")), None)
        if x.ndim != 4 or 0 in x.shape or c_in not in (None, x.shape[3]):
            want = f"(H, W, {'C' if c_in is None else c_in})"
            raise ValueError(f"expected non-empty {want} pixels, got shape {x.shape[1:]}")
        return x

    def _keeps(self, i, bases, first, count, size):
        """(S * count, size) keep masks for ``layers[i]``: row s * count + k
        for pass ``first + k`` of base seed ``bases[s]``, a grid of the S
        base seeds and the passes.

        Each row is one Bernoulli per entry of the activation's last
        axis: a channel of a feature map, or an element of a vector.
        None unless the layer is a Dropout with a nonzero rate and
        there are base seeds.

        The draw is a stateless counter hash (Salmon et al. 2011): pass
        p's (base seed, p, layer) is mixed into a row key, and entry e
        keeps iff the mix of (row key + (e + 1) * gamma), uniform on
        [0, 2**64), is at least rate * 2**64.  A row depends on its own
        key alone, so the masks do not depend on pass order, on the
        count, on the other scenes or on the worker count.
        """
        layer = self.layers[i]
        if not (bases is not None and isinstance(layer, Dropout) and layer.rate > 0.0):
            return None
        passes = np.arange(first, first + count, dtype=np.uint64)
        layer_key = np.uint64(i * _LAYER_GAMMA % _KEY_LIMIT)
        bases = np.array(bases, dtype=np.uint64)[:, None]
        rows = _mix(bases ^ (passes * _GAMMA + layer_key)).ravel()
        bits = _mix(rows[:, None] + np.arange(1, size + 1, dtype=np.uint64) * _GAMMA)
        return bits >= int(layer.rate * 2.0**64)

    def _run(self, x, bases, first, count, caches=None):
        """All layers on the rows of ``x``; returns the activation, and
        appends each layer's cache to ``caches`` if given, for a backward.

        Under ``bases``, with passes ``first`` to ``first + count - 1``
        of each, whose range the caller checks, the masks are
        ``_keeps``' grid.  With one row per pass, a row runs under its
        pass's masks.  With one row per base seed, shared by its passes,
        the row broadcasts against their masks into one row per pass.
        Right before a pool it is not broadcast: the pool runs on the
        map with every channel some pass of the seed keeps kept, and on
        the map with all dropped, and each pass picks its channels from
        the two, so g-net builds no (count, H, W, C) array per scene.  A
        channel no pass keeps is dropped in both, so the checks stay
        exact.
        """
        dropped = None
        for i, (layer, after) in enumerate(zip(self.layers, [*self.layers[1:], None])):
            keep = self._keeps(i, bases, first, count, x.shape[-1])
            if dropped is not None:  # the pool after a shared spatial Dropout
                pooled = layer.forward(x)[0][:, None], layer.forward(dropped)[0][:, None]
                x, cache = np.where(kept, *pooled).reshape(-1, x.shape[-1]), None
                dropped = None
            elif keep is None:  # not a Dropout, or one that drops nothing
                x, cache = layer.forward(x)
            elif len(x) < len(keep) and x.ndim == 4 and isinstance(after, (MeanPool, MaxPool)):
                kept, dropped = keep.reshape(len(x), count, -1), layer.forward(x, False)[0]
                x, cache = layer.forward(x, kept.any(axis=1)[:, None, None])
            elif len(x) < len(keep):  # one row per base seed meets its passes' masks
                shape = (len(x), count, 1, 1, -1) if x.ndim == 4 else (len(x), count, -1)
                x, cache = layer.forward(x[:, None], keep.reshape(shape))
                x = x.reshape(-1, *x.shape[2:])  # x alone holds it, so the next layer frees it
            else:
                x, cache = layer.forward(x, keep[:, None, None, :] if x.ndim == 4 else keep)
            if not np.isfinite(x).all():
                raise NumericError(f"non-finite activations after layer {i} ({layer.kind})")
            if caches is not None:
                caches.append(cache)
            del cache  # no MC pass holds a conv's windows past the conv
        return x

    def backward(self, pixels, gts, seed: PassSeed):
        """Per-image losses and summed gradients for a mini-batch.

        Image k of ``pixels`` (a list or a stacked array), with label
        ``gts[k]``, runs under pass ``seed.pass_index + k``'s masks, in
        ``_block_rows``' blocks: only a block is stacked.  The whole batch's
        pass range is checked before the first block.  ``grads``
        parallels ``layers``: name -> the images' gradients summed in
        image order, so the bytes do not depend on the blocks.  The pass
        ends at the lowest layer with parameters and asks it for no input
        gradient (``need_dx=False``): no layer below it reads one.
        """
        if not len(pixels):
            raise ValueError("backward needs at least one image")
        if len(gts) != len(pixels):
            raise ValueError(f"one label per image: got {len(gts)} for {len(pixels)} images")
        _check_passes(seed.pass_index, len(pixels))
        gts = np.asarray(gts, dtype=np.float64)
        step = self._block_rows(pixels)[0]
        lowest = next((i for i, layer in enumerate(self.layers) if layer.params), len(self.layers))
        losses, per_row = [], [[] for _ in self.layers]
        for r in range(0, len(pixels), step):
            x = self._images(pixels[r : r + step])
            caches = []
            pred = self._run(x, [seed.base_seed], seed.pass_index + r, len(x), caches)
            losses.append(cosine_loss(pred, gts[r : r + step]))
            grad = -gts[r : r + step]
            for i in range(len(self.layers) - 1, lowest - 1, -1):  # pop: free each cache once used
                skip = {"need_dx": False} if i == lowest else {}
                grad, layer_grads = self.layers[i].backward(grad, caches.pop(), **skip)
                per_row[i].append(layer_grads)
        grads: list[dict] = [{} for _ in self.layers]
        for i, blocks in enumerate(per_row):
            for name in self.layers[i].params:
                grads[i][name] = np.concatenate([g[name] for g in blocks]).sum(axis=0)
                if not np.all(np.isfinite(grads[i][name])):
                    raise NumericError(f"non-finite gradient for parameter {name!r} of layer {i}")
        return np.concatenate(losses), grads

"""Network container: ordered layers, MC and deterministic forwards, backprop."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from mcde.nn.layers import Affine, Dropout, MaxPool, MeanPool, PassSeed, PositiveHead, Relu
from mcde.seeding import derive_seed

__all__ = ["Mode", "Network", "NumericError", "cosine_loss"]


class Mode(Enum):
    """``Network.forward``'s choice: dropout from a pass seed, or none."""

    MC = "mc"
    DETERMINISTIC = "deterministic"


class NumericError(RuntimeError):
    """Non-finite activations or gradients, annotated with the layer index."""


def cosine_loss(pred, gt) -> float:
    """1 minus the inner product of two unit vectors; 0 iff they coincide."""
    return 1.0 - float(np.dot(pred, gt))


def _mask_rng(seed: PassSeed, layer_index: int) -> np.random.Generator:
    return np.random.default_rng(
        derive_seed("dropout-mask", seed.base_seed, seed.pass_index, layer_index)
    )


@dataclass
class Network:
    """Ordered layer stack mapping an (H, W, 3) image to an illuminant.

    The pass seed alone turns dropout on: under a ``PassSeed`` each
    ``Dropout`` draws its mask from (seed, layer index), in training and
    MC inference alike; without one it is the identity.  The layers
    before the first ``Dropout`` (the prefix) give the same output on
    every pass, so ``forward_passes`` runs them once and runs the rest
    (the suffix) once for all passes, over a leading pass axis.  All
    entry points check the activations after every layer they run.

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
        return self._run(self._pixels(pixels), seed if mode is Mode.MC else None)[0]

    def forward_passes(self, pixels, seeds) -> np.ndarray:
        """One MC-mode forward per PassSeed in ``seeds``, as a (len(seeds), 3) array.

        Row k equals ``forward(pixels, Mode.MC, seeds[k])`` bit for bit:
        the prefix runs once, and the suffix runs from that same
        activation under each pass's own masks, stacked when
        ``_run_stacked`` can and pass by pass otherwise.
        """
        seeds = list(seeds)
        if not seeds:
            raise ValueError("forward_passes needs at least one PassSeed")
        split = next(
            (i for i, layer in enumerate(self.layers) if isinstance(layer, Dropout)),
            len(self.layers),
        )
        shared, _ = self._run(self._pixels(pixels), None, stop=split)
        # Silent: a value that would warn is not finite, so the replay
        # below runs and warns as the whole-stack forwards would.
        with np.errstate(all="ignore"):
            stacked = self._run_stacked(shared, seeds, split)
        if stacked is not None:
            return stacked
        return np.stack([self._run(shared, seed, start=split)[0] for seed in seeds])

    def _pixels(self, pixels) -> np.ndarray:
        """``pixels`` as float64, checked to be a non-empty (H, W, c_in) image.

        A network without layers is the identity and takes any array.
        """
        x = np.asarray(pixels, dtype=np.float64)
        if not self.layers:
            return x
        c_in = getattr(self.layers[0], "c_in", None)
        if x.ndim != 3 or 0 in x.shape or c_in not in (None, x.shape[2]):
            want = f"(H, W, {'C' if c_in is None else c_in})"
            raise ValueError(f"expected non-empty {want} pixels, got shape {x.shape}")
        return x

    def _run_stacked(self, x, seeds, start):
        """``layers[start:]`` once for all passes, as a (len(seeds), ...) array.

        Runs a suffix of vector layers, optionally led by a spatial
        ``Dropout`` right before the global pool.  That Dropout scales
        each channel by 0 or 1/(1-rate), so the pool runs once on each
        scaled map and every pass picks its channels from the two; the
        (ν, H, W, C) stack is never built.  Returns None for any other
        suffix, or when an activation is not finite, so that the
        pass-by-pass replay raises exactly the error (and names the
        layer) a whole-stack forward would.
        """
        i = start
        if x.ndim == 3:
            if len(self.layers) < i + 2 or not isinstance(self.layers[i + 1], (MeanPool, MaxPool)):
                return None
            drop, pool = self.layers[i : i + 2]
            keep = self._keeps(i, seeds, x.shape[-1])
            kept = x * (1.0 / (1.0 - drop.rate))
            if not np.all(np.isfinite(kept)):
                return None
            a = np.where(keep, pool.forward(kept)[0], pool.forward(x * 0.0)[0])
            i += 2
            if not np.all(np.isfinite(a)):
                return None
        else:
            a = np.repeat(x[None], len(seeds), axis=0)
        for i, layer in enumerate(self.layers[i:], i):
            if isinstance(layer, Dropout):
                a = a * (self._keeps(i, seeds, a.shape[-1]) / (1.0 - layer.rate))
            elif isinstance(layer, (Affine, Relu, PositiveHead)):
                a, _ = layer.forward(a)
            else:
                return None
            if not np.all(np.isfinite(a)):
                return None
        return a

    def _keeps(self, i, seeds, size):
        """(len(seeds), size) keep masks of the Dropout at ``layers[i]``, one row per pass."""
        layer = self.layers[i]
        if layer.rate == 0.0:
            return np.ones((len(seeds), size), dtype=bool)
        return np.stack([layer.keep(_mask_rng(seed, i), size) for seed in seeds])

    def _run(self, x, seed, start=0, stop=None):
        """Apply ``layers[start:stop]`` to ``x``; returns (activation, caches)."""
        caches = []
        a = x
        for i, layer in enumerate(self.layers[start:stop], start):
            rng = None
            if seed is not None and isinstance(layer, Dropout):
                rng = _mask_rng(seed, i)
            a, cache = layer.forward(a, rng=rng)
            if not np.all(np.isfinite(a)):
                raise NumericError(
                    f"non-finite activations after layer {i} ({layer.kind})"
                )
            caches.append(cache)
        return a, caches

    def backward(self, pixels, gt, seed: PassSeed):
        """Loss and gradients for one sample under the pass's dropout masks.

        Returns (loss, grads) where grads is a list parallel to
        ``layers``; each entry maps parameter names to arrays shaped
        like the parameters.  Nothing consumes the gradient with
        respect to the pixels, so layer 0 is asked not to compute it
        (``need_dx=False``); every parameter gradient is the same, bit
        for bit, as with a full backward.
        """
        gt = np.asarray(gt, dtype=np.float64)
        pred, caches = self._run(self._pixels(pixels), seed)
        loss = cosine_loss(pred, gt)
        grad = -gt
        grads: list[dict] = [{}] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            grad, grads[i] = self.layers[i].backward(grad, caches[i], need_dx=i > 0)
        for i, layer_grads in enumerate(grads):
            for name, arr in layer_grads.items():
                if not np.all(np.isfinite(arr)):
                    raise NumericError(
                        f"non-finite gradient for parameter {name!r} of layer {i}"
                    )
        return loss, grads

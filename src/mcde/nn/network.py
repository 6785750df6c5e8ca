"""Network container: ordered layers, MC and deterministic forwards, backprop."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from mcde.nn.layers import Dropout, PassSeed
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
    every pass, so ``forward_passes`` runs them once and replays only
    the rest (the suffix) per pass.  All entry points share one layer
    loop, which checks the activations after every layer it runs.

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
        x = np.asarray(pixels, dtype=np.float64)
        return self._run(x, seed if mode is Mode.MC else None)[0]

    def forward_passes(self, pixels, seeds) -> np.ndarray:
        """One MC-mode forward per PassSeed in ``seeds``, as a (len(seeds), 3) array.

        Row k equals ``forward(pixels, Mode.MC, seeds[k])`` bit for bit:
        the prefix runs once, and each pass's suffix starts from that
        same activation under its own masks.
        """
        seeds = list(seeds)
        if not seeds:
            raise ValueError("forward_passes needs at least one PassSeed")
        split = next(
            (i for i, layer in enumerate(self.layers) if isinstance(layer, Dropout)),
            len(self.layers),
        )
        shared, _ = self._run(np.asarray(pixels, dtype=np.float64), None, stop=split)
        return np.stack([self._run(shared, seed, start=split)[0] for seed in seeds])

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
        like the parameters.
        """
        x = np.asarray(pixels, dtype=np.float64)
        gt = np.asarray(gt, dtype=np.float64)
        pred, caches = self._run(x, seed)
        loss = cosine_loss(pred, gt)
        grad = -gt
        grads: list[dict] = [{}] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            grad, layer_grads = self.layers[i].backward(grad, caches[i])
            grads[i] = layer_grads
        for i, layer_grads in enumerate(grads):
            for name, arr in layer_grads.items():
                if not np.all(np.isfinite(arr)):
                    raise NumericError(
                        f"non-finite gradient for parameter {name!r} of layer {i}"
                    )
        return loss, grads

"""Network container: ordered layers, MC and deterministic forwards, backprop."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from mcde.nn.layers import Dropout, MaxPool, MeanPool

__all__ = ["Mode", "Network", "NumericError", "PassSeed", "cosine_loss"]

# Mask keys are uint64.  Python-int arithmetic on them is reduced by
# _MASK64; numpy's uint64 arrays wrap by themselves, and take their
# constants as numpy scalars, which a ufunc does not convert per call.
# _GAMMA is splitmix64's Weyl increment (Steele et al. 2014) and
# _LAYER_GAMMA spaces the layers apart.
_KEY_LIMIT = 1 << 64
_MASK64 = _KEY_LIMIT - 1
_GAMMA = 0x9E3779B97F4A7C15
_LAYER_GAMMA = 0xD1B54A32D192ED03
_GAMMA_U64 = np.uint64(_GAMMA)
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
        for name in ("base_seed", "pass_index"):
            value = getattr(self, name)
            if type(value) is not int:  # a numpy integer, say: keys need Python ints
                if isinstance(value, bool) or not hasattr(value, "__index__"):
                    raise TypeError(f"{name} must be an integer, got {value!r}")
                value = value.__index__()
                object.__setattr__(self, name, value)
            if not 0 <= value < _KEY_LIMIT:
                raise ValueError(f"{name} must lie in [0, 2**64), got {value}")


class Mode(Enum):
    """``Network.forward``'s choice: dropout from a pass seed, or none."""

    MC = "mc"
    DETERMINISTIC = "deterministic"


class NumericError(RuntimeError):
    """Non-finite activations or gradients, annotated with the layer index."""


def cosine_loss(pred, gt) -> float:
    """1 minus the inner product of two unit vectors; 0 iff they coincide."""
    return 1.0 - float(np.dot(pred, gt))


@dataclass
class Network:
    """Ordered layer stack mapping an (H, W, 3) image to an illuminant.

    The pass seed alone turns dropout on: under a ``PassSeed`` the
    network draws each ``Dropout``'s mask from (seed, layer index), in
    training and MC inference alike, and hands it to the layer shaped to
    broadcast against its input; without one, dropout is the identity.
    ``_keeps`` is the one place a mask is drawn.  The layers
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
        the prefix runs once, and the suffix runs once for all passes,
        from that same activation under each pass's own masks.
        """
        seeds = list(seeds)
        if not seeds:
            raise ValueError("forward_passes needs at least one PassSeed")
        split = next(
            (i for i, layer in enumerate(self.layers) if isinstance(layer, Dropout)),
            len(self.layers),
        )
        shared, _ = self._run(self._pixels(pixels), None, stop=split)
        # Silent: a value that would warn is not finite, and the replay
        # below then raises and warns as the whole-stack forwards would.
        # It only reports: the kept-map check is conservative, and the
        # stacked rows equal the per-pass forwards anyway.
        with np.errstate(all="ignore"):
            stacked, finite = self._run_stacked(shared, seeds, split)
        if not finite:
            for seed in seeds:
                self._run(shared, seed, start=split)
        return stacked

    def _pixels(self, pixels) -> np.ndarray:
        """``pixels`` as float64, checked to be a non-empty (H, W, c_in) image.

        ``c_in`` comes from the first layer that has one, if any.  A
        network without layers is the identity and takes any array.
        """
        x = np.asarray(pixels, dtype=np.float64)
        if not self.layers:
            return x
        c_in = next((layer.c_in for layer in self.layers if hasattr(layer, "c_in")), None)
        if x.ndim != 3 or 0 in x.shape or c_in not in (None, x.shape[2]):
            want = f"(H, W, {'C' if c_in is None else c_in})"
            raise ValueError(f"expected non-empty {want} pixels, got shape {x.shape}")
        return x

    def _run_stacked(self, x, seeds, start):
        """``layers[start:]`` on the prefix's output ``x`` for all passes at
        once: a (len(seeds), ...) array, and whether it stayed finite.

        The activation gains its pass axis at the first Dropout that
        applies a mask; without one, every pass gets the same row.
        Right before a pool, a spatial map is not stacked: the pool runs
        once on the map with every channel kept and once with every one
        dropped, and each pass picks its channels from the two, so g-net
        builds no (ν, H, W, C) array.  The check then covers the whole
        kept map, which is conservative.
        """
        a, finite, stacked, dropped = x, True, False, None
        for i, layer in enumerate(self.layers[start:], start):
            keep, after = self._keeps(i, seeds, a.shape[-1]), self.layers[i + 1 : i + 2]
            if dropped is not None:  # the pool after a spatial Dropout
                a = np.where(kept, layer.forward(a)[0], layer.forward(dropped)[0])
                dropped, stacked = None, True
            elif keep is None:  # not a Dropout, or one that drops nothing
                a, _ = layer.forward(a)
            elif a.ndim >= 3 and after and isinstance(after[0], (MeanPool, MaxPool)):
                kept, (a, _), (dropped, _) = keep, layer.forward(a, True), layer.forward(a, False)
            else:
                a, _ = layer.forward(a, keep[:, None, None, :] if a.ndim >= 3 else keep)
                stacked = True
            finite = finite and np.all(np.isfinite(a))
        if not stacked:
            a = np.repeat(a[None], len(seeds), axis=0)
        return a, finite

    def _keeps(self, i, seeds, size):
        """(len(seeds), size) keep masks for ``layers[i]``, one row per pass.

        Each row is one Bernoulli per entry of the activation's last
        axis: a channel of a feature map, or an element of a vector.
        None unless the layer is a Dropout with a nonzero rate and
        there are seeds.

        The draw is a stateless counter hash (Salmon et al. 2011): each
        pass's (base seed, pass index, layer) is mixed into a row key,
        and entry e keeps iff the mix of (row key + (e + 1) * gamma),
        uniform on [0, 2**64), is at least rate * 2**64.  A row depends
        on its own key alone, so the masks do not depend on pass order,
        on the other seeds in ``seeds`` or on the worker count.
        """
        layer = self.layers[i]
        if not (seeds and isinstance(layer, Dropout) and layer.rate > 0.0):
            return None
        rows = _mix(np.array(
            [s.base_seed ^ ((s.pass_index * _GAMMA + i * _LAYER_GAMMA) & _MASK64) for s in seeds],
            dtype=np.uint64,
        ))
        bits = _mix(rows[:, None] + np.arange(1, size + 1, dtype=np.uint64) * _GAMMA_U64)
        return bits >= int(layer.rate * 2.0**64)

    def _run(self, x, seed, start=0, stop=None):
        """Apply ``layers[start:stop]`` to ``x``; returns (activation, caches)."""
        caches = []
        a = x
        for i, layer in enumerate(self.layers[start:stop], start):
            keep = self._keeps(i, () if seed is None else [seed], a.shape[-1])
            a, cache = layer.forward(a) if keep is None else layer.forward(a, keep[0])
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

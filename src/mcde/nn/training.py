"""Plain SGD on the cosine loss, fully deterministic given its config."""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from mcde._check import check_int, check_real
from mcde.color import check_label, check_pixels
from mcde.nn.layers import PARAM_DTYPE
from mcde.nn.network import Network, NumericError, PassSeed
from mcde.seeding import MAX_SEED, derive_seed

__all__ = ["MAX_LEARNING_RATE", "TrainConfig", "TrainingError", "train"]

# Rates must lie below float32's maximum: from there the step scale is
# inf in the float32 parameters, and their first update is inf or nan.
MAX_LEARNING_RATE = float(np.finfo(PARAM_DTYPE).max)

# glibc hands the freed top of its heap back to the kernel after each
# mini-batch step, and the next step faults the same pages in again.
# ``_pad_heap`` keeps this much slack at the top instead.  M_TOP_PAD also
# freezes glibc's dynamic mmap threshold (glibc 2.36 malloc.c's
# ``do_set_top_pad`` sets ``mp_.no_dyn_threshold``), after in-memory
# generation at 128 KiB, below a 64x64 activation, which would then be
# mmapped and faulted in anew on every call.  So the threshold is set too,
# to its 64-bit maximum.  A 64x64 step of 8 faults 1,280 times without the
# two settings and none with them.  MALLOC_*_ variables are read before
# Python starts.
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
_HEAP_TOP_PAD = 64 * 1024 * 1024
_MMAP_THRESHOLD = 32 * 1024 * 1024


class TrainingError(RuntimeError):
    """Raised when training diverges; the message names the epoch."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 0.01
    batch_size: int = 8
    base_seed: int = 0

    def __post_init__(self) -> None:
        check_int("epochs", self.epochs, 0)
        check_int("batch_size", self.batch_size, 1)
        check_real("learning_rate", self.learning_rate, 0.0, MAX_LEARNING_RATE)
        check_int("base_seed", self.base_seed, 0, MAX_SEED)


@functools.cache
def _pad_heap() -> None:
    """Set glibc's heap top pad and mmap threshold, once per process (a forked
    worker inherits the settings and the cache); elsewhere do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt: macOS, Windows
        return
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def train(net: Network, scenes, config: TrainConfig):
    """SGD without momentum on same-shaped scenes, one backward per mini-batch.

    Each step subtracts ``lr / len(batch)`` times the batch's gradient,
    summed in sample order, in the parameters' float32.  Scenes are
    visited in a per-epoch shuffled order derived from the base seed, and
    each sample's dropout masks come from its position in the whole run,
    so identical (network, data, config) runs produce bit-identical
    weights.  Every scene must pass ``check_pixels`` and ``check_label``,
    or nothing is trained.  Returns (net, per-epoch mean loss trace);
    the network is updated in place.
    """
    _pad_heap()
    scenes = list(scenes)
    if not scenes:
        raise ValueError("training set is empty")
    shape = np.shape(scenes[0].pixels)
    for i, scene in enumerate(scenes):
        if np.shape(scene.pixels) != shape:
            raise ValueError(f"scenes differ in shape: {shape} and {np.shape(scene.pixels)}")
        check_pixels(scene.pixels, f"scene {i} ")
        check_label(scene.label, f"scene {i}: ")
    pass_base = derive_seed("train-pass", config.base_seed)
    trace: list[float] = []
    for epoch in range(config.epochs):
        order = np.random.default_rng(
            derive_seed("train-shuffle", config.base_seed, epoch)
        ).permutation(len(scenes))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [scenes[i] for i in order[start : start + config.batch_size]]
            first = epoch * len(order) + start  # the pass index of the batch's first sample
            try:
                losses, grads = net.backward(
                    [scene.pixels for scene in batch],
                    [scene.label for scene in batch],
                    PassSeed(pass_base, first),
                )
            except NumericError as exc:
                raise TrainingError(f"training diverged at epoch {epoch}: {exc}") from exc
            epoch_losses.extend(losses)
            scale = config.learning_rate / len(batch)
            for layer, layer_grads in zip(net.layers, grads):
                for name, grad in layer_grads.items():
                    layer.params[name] -= scale * grad
        mean_loss = float(np.mean(epoch_losses))
        if not np.isfinite(mean_loss):
            raise TrainingError(f"training diverged at epoch {epoch}: non-finite loss")
        trace.append(mean_loss)
    return net, trace

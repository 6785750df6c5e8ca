"""Statistical baselines that need no training."""

from __future__ import annotations

import numpy as np

from mcde._check import check_real
from mcde.color import normalize

__all__ = ["grey_world", "shades_of_grey"]


def grey_world(pixels) -> np.ndarray:
    """Illuminant as the normalized per-channel mean.

    Assumes the average scene reflectance is achromatic.  A channel
    with zero mean (an all-black channel) has no direction and raises
    ValueError.
    """
    means = np.asarray(pixels, dtype=np.float64).reshape(-1, 3).mean(axis=0)
    return normalize(means)


def shades_of_grey(pixels, p: float = 6.0) -> np.ndarray:
    """Illuminant as the normalized per-channel Minkowski p-mean.

    p = 1 reduces to grey_world; large p approaches the brightest
    pixel per channel.  Invariant under global exposure scaling.
    """
    check_real("p", p, 1.0)
    pix = np.asarray(pixels, dtype=np.float64)
    pooled = np.power(np.mean(np.power(pix, p).reshape(-1, 3), axis=0), 1.0 / p)
    return normalize(pooled)

"""Monte Carlo dropout inference: repeated stochastic passes per model.

A model's estimate is the re-normalized component-wise average of nu
stochastic forward passes; its uncertainty is the per-channel
population standard deviation of those passes (computed against the
raw, pre-normalization mean), compressed to a single scalar as the
product sigma_r * sigma_g * sigma_b.

The passes come from ``Network.forward_passes``: one layer loop over all
nu passes, bit-identical to nu separate forwards, with pass i's masks a
counter hash of (base_seed, i, layer, element) drawn in ``_keeps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mcde._check import check_int
from mcde.nn.network import PassSeed

__all__ = ["MAX_NU", "MCEstimate", "mc_estimate"]

# MC passes per model, about 30x the default.  Masks are drawn layer by
# layer inside the one layer loop, and from the first Dropout on the
# activations hold one row per pass: at nu=1000 and 64x64, g-net and
# m-net peak at 0.7 MiB (tracemalloc), but a 12-channel conv after a
# Dropout (only in a network built in Python) at 578 MiB, and an
# unbounded nu scales that.
MAX_NU = 1000


@dataclass(frozen=True)
class MCEstimate:
    """Aggregate of nu stochastic passes.

    mean:   (3,) unit-norm illuminant estimate.
    sigma:  (3,) per-channel spread of the passes (1/nu convention).
    mu:     scalar total uncertainty, the product of the three sigmas.
    """

    mean: np.ndarray
    sigma: np.ndarray
    mu: float


def mc_estimate(net, pixels, nu: int = 30, base_seed: int = 0) -> MCEstimate:
    """Run nu dropout-active passes and reduce them to an MCEstimate.

    Masks are keyed by (base_seed, pass index), so the result does not
    depend on the order the passes are evaluated in.  When every pass
    returns bit-identical outputs (dropout rate 0, or a single pass)
    the spread is exactly zero; the short-circuit avoids spurious
    round-off from averaging identical values.
    """
    check_int("nu", nu, 1, MAX_NU)
    outs = net.forward_passes(pixels, PassSeed(base_seed), nu)
    if np.all(outs == outs[0]):
        raw_mean = outs[0]
        sigma = np.zeros(3)
    else:
        raw_mean = outs.mean(axis=0)
        sigma = np.sqrt(np.mean((outs - raw_mean) ** 2, axis=0))
    mean = raw_mean / np.linalg.norm(raw_mean)
    return MCEstimate(mean=mean, sigma=sigma, mu=float(sigma.prod()))

"""Monte Carlo dropout inference: repeated stochastic passes per model.

A model's estimate is the re-normalized component-wise average of nu
stochastic forward passes; its uncertainty is the per-channel
population standard deviation of those passes (computed against the
raw, pre-normalization mean), compressed to a single scalar as the
product sigma_r * sigma_g * sigma_b.

The passes come from ``Network.forward_passes``, which runs the layers
before the first Dropout once per call and the rest of the stack once
for all nu passes, over a leading pass axis.  Each pass still sees the
same input and masks as a whole-stack ``forward``, so the passes are
bit-identical to nu separate forwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mcde.nn.layers import PassSeed
from mcde.seeding import derive_seed

__all__ = ["MCEstimate", "mc_estimate"]


@dataclass(frozen=True)
class MCEstimate:
    """Aggregate of nu stochastic passes.

    mean:   (3,) unit-norm illuminant estimate.
    sigma:  (3,) per-channel spread of the passes (1/nu convention).
    mu:     scalar total uncertainty, the product of the three sigmas.
    passes: number of forward passes aggregated.
    """

    mean: np.ndarray
    sigma: np.ndarray
    mu: float
    passes: int


def mc_estimate(net, pixels, nu: int = 30, base_seed: int = 0) -> MCEstimate:
    """Run nu dropout-active passes and reduce them to an MCEstimate.

    Masks are keyed by (base_seed, pass index), so the result does not
    depend on the order the passes are evaluated in.  When every pass
    returns bit-identical outputs (dropout rate 0, or a single pass)
    the spread is exactly zero; the short-circuit avoids spurious
    round-off from averaging identical values.
    """
    if not isinstance(nu, int) or isinstance(nu, bool):
        raise TypeError(f"nu must be an integer, got {nu!r}")
    if nu < 1:
        raise ValueError("nu must be at least 1")
    outs = net.forward_passes(pixels, [PassSeed(base_seed, i) for i in range(nu)])
    if np.all(outs == outs[0]):
        raw_mean = outs[0]
        sigma = np.zeros(3)
    else:
        raw_mean = outs.mean(axis=0)
        sigma = np.sqrt(np.mean((outs - raw_mean) ** 2, axis=0))
    mean = raw_mean / np.linalg.norm(raw_mean)
    return MCEstimate(mean=mean, sigma=sigma, mu=float(sigma.prod()), passes=nu)


def derive_member_seed(base_seed: int, model_index: int) -> int:
    """Per-member pass seed; adding a model never perturbs the others."""
    return derive_seed("ensemble-member", base_seed, model_index)

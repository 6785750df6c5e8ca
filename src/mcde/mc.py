"""Monte Carlo dropout inference: repeated stochastic passes per model.

A model's estimate is the re-normalized component-wise average of nu
stochastic forward passes; its uncertainty is the per-channel
population standard deviation of those passes (computed against the
raw, pre-normalization mean), compressed to a single scalar as the
product sigma_r * sigma_g * sigma_b.

The passes come from ``Network.scene_passes``: one layer loop over all
nu passes of a block of scenes, bit-identical to nu separate forwards
of each, with pass i's masks a counter hash of (base_seed, i, layer,
element) drawn in ``_keeps``.  ``mc_estimate`` is its one-scene case,
through ``Network.forward_passes``, and ``mc_estimates`` gives each of
many scenes its own base seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mcde._check import check_int
from mcde.color import check_pixels
from mcde.nn import network
from mcde.nn.network import PassSeed

__all__ = ["MAX_NU", "MCEstimate", "mc_estimate", "mc_estimates"]

# MC passes per model: ``Network.scene_passes``' bound, kept here for the
# callers that check nu up front.
MAX_NU = network.MAX_NU


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
    round-off from averaging identical values.  This is the one-scene
    case of ``mc_estimates``.  Pixels that ``check_pixels`` refuses fail
    before any pass runs.
    """
    check_int("nu", nu, 1, MAX_NU)
    check_pixels(pixels, "image ")
    mean, sigma, mu = _reduce(net.forward_passes(pixels, PassSeed(base_seed), nu)[None])
    return MCEstimate(mean=mean[0], sigma=sigma[0], mu=float(mu[0]))


def mc_estimates(net, pixels, nu: int, base_seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``mc_estimate`` of each of S scenes under its own base seed, as
    (S, 3) means, (S, 3) sigmas and (S,) mu.

    ``pixels`` is a list or a stacked array of scenes of one shape, and
    scene s's row holds the bytes of ``mc_estimate(net, pixels[s], nu,
    base_seeds[s])``: the passes run in ``Network.scene_passes``' blocks
    of scenes.  Every scene is checked by ``check_pixels`` before any
    pass runs, and a refused one is named by its index, as is the first
    scene whose shape differs from scene 0's.
    """
    check_int("nu", nu, 1, MAX_NU)
    for s, scene in enumerate(pixels):
        check_pixels(scene, f"scene {s} ")
    return _reduce(net.scene_passes(pixels, base_seeds, nu))


def _reduce(outs):
    """(mean, sigma, mu) of (S, nu, 3) passes, one row per scene.

    Each scene's reduction is its own: sums run over the pass axis in
    pass order, and the norm is a (1, 3) @ (3, 1) product per row, which
    rounds as ``np.linalg.norm`` of the row does.
    """
    nu = outs.shape[1]
    raw_mean = outs.sum(axis=1) / nu  # np.mean's bytes, without its wrapper
    sigma = np.sqrt(((outs - raw_mean[:, None]) ** 2).sum(axis=1) / nu)
    same = (outs == outs[:, :1]).all(axis=(1, 2))
    if same.any():
        raw_mean[same], sigma[same] = outs[same, 0], 0.0
    norm = np.sqrt(raw_mean[:, None, :] @ raw_mean[:, :, None])[:, 0]
    return raw_mean / norm, sigma, sigma.prod(axis=1)

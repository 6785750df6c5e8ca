"""Confidence-weighted fusion of per-model MC estimates.

Each model's scalar uncertainty mu is turned into a confidence with
g(1/mu), where g is identity ("linear") or natural log ("log").
Confidences are floored and normalized to a simplex, and the fused
illuminant is the weighted average of the members' spherical
coordinates, mapped back to RGB.

Floors: uncertainties are clamped below at SIGMA_FLOOR before
inversion and raw confidences at CONFIDENCE_FLOOR, so weights are
always finite and strictly positive.  Note the asymmetry between the
variants: with the linear map a near-zero uncertainty dominates any
competitor outright (raw score 1e12), while the log map caps the same
score at ln(1e12) ~ 27.6, so full log-variant dominance only occurs
when the competing uncertainties sit near or above 1 (their raw score
then hits the confidence floor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mcde.color import METRICS, SphericalDir, from_spherical, to_spherical
from mcde.mc import MCEstimate, derive_member_seed, mc_estimate

__all__ = [
    "SIGMA_FLOOR",
    "CONFIDENCE_FLOOR",
    "FusionResult",
    "raw_confidence",
    "confidence_scores",
    "aggregate",
    "ensemble_estimates",
    "fuse",
    "mcde",
    "ideal_combine",
]

SIGMA_FLOOR = 1e-12
CONFIDENCE_FLOOR = 1e-6


def _g(variant: str):
    if variant == "linear":
        return lambda x: x
    if variant == "log":
        return np.log
    raise ValueError(f"unknown confidence variant {variant!r}")


def raw_confidence(uncertainties, variant: str = "log") -> np.ndarray:
    """Pre-normalization confidence scores g(1/mu), floored."""
    u = np.asarray(uncertainties, dtype=np.float64)
    return np.maximum(_g(variant)(1.0 / np.maximum(u, SIGMA_FLOOR)), CONFIDENCE_FLOOR)


def confidence_scores(uncertainties, variant: str = "log") -> np.ndarray:
    """Normalized ensemble weights: raw confidences divided by their sum."""
    raw = raw_confidence(uncertainties, variant)
    return raw / raw.sum()


def aggregate(means, weights) -> np.ndarray:
    """Weighted angular average of unit estimates, in spherical coordinates.

    Weights must lie on the simplex.  The fused azimuth/inclination are
    convex combinations of the members', so the result always lies
    inside the members' angular envelope.
    """
    means = np.asarray(means, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if means.ndim != 2 or means.shape[1] != 3 or weights.shape != (means.shape[0],):
        raise ValueError("expected (K, 3) means and (K,) weights")
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be non-negative and sum to 1")
    phi, varphi = to_spherical(means)
    return from_spherical(SphericalDir(float(weights @ phi), float(weights @ varphi)))


@dataclass(frozen=True)
class FusionResult:
    """Fused estimate plus everything that went into it."""

    fused: np.ndarray
    estimates: tuple[MCEstimate, ...]
    weights: np.ndarray
    raw_scores: np.ndarray
    variant: str


def ensemble_estimates(nets, pixels, nu: int = 30, base_seed: int = 0) -> list[MCEstimate]:
    """MC estimate per member, each under its own derived seed."""
    return [
        mc_estimate(net, pixels, nu, derive_member_seed(base_seed, k))
        for k, net in enumerate(nets)
    ]


def fuse(estimates, variant: str = "log") -> FusionResult:
    """Weight per-model estimates by confidence and average them angularly."""
    estimates = tuple(estimates)
    if not estimates:
        raise ValueError("need at least one member estimate")
    mus = np.array([e.mu for e in estimates])
    raw = raw_confidence(mus, variant)
    weights = raw / raw.sum()
    fused = aggregate(np.stack([e.mean for e in estimates]), weights)
    return FusionResult(
        fused=fused,
        estimates=estimates,
        weights=weights,
        raw_scores=raw,
        variant=variant,
    )


def mcde(nets, pixels, nu: int = 30, base_seed: int = 0, variant: str = "log") -> FusionResult:
    """Full pipeline: per-model MC passes, confidences, angular fusion.

    With a single member the fused output is that member's MC mean (up
    to the spherical round-trip); with one member far more certain than
    the rest the fusion follows it.  An unknown ``variant`` fails before
    any pass runs.
    """
    _g(variant)
    return fuse(ensemble_estimates(nets, pixels, nu, base_seed), variant)


def ideal_combine(estimates, gt, metric: str = "recovery") -> np.ndarray:
    """Oracle selection: the member estimate with the lowest error.

    Needs the ground truth, so it is a reporting bound, not an
    estimator.  Ties go to the lowest member index.
    """
    try:
        fn = METRICS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}") from None
    estimates = [np.asarray(e, dtype=np.float64) for e in estimates]
    if not estimates:
        raise ValueError("need at least one candidate estimate")
    errors = np.array([fn(gt, est) for est in estimates])
    return estimates[int(np.argmin(errors))]

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

from mcde.color import METRICS, from_spherical, to_spherical
from mcde.mc import MCEstimate, mc_estimate
from mcde.seeding import derive_seed

__all__ = [
    "VARIANTS",
    "SIGMA_FLOOR",
    "CONFIDENCE_FLOOR",
    "FusionResult",
    "raw_confidence",
    "aggregate",
    "combine",
    "member_seed",
    "ensemble_estimates",
    "fuse",
    "mcde",
    "ideal_combine",
]

SIGMA_FLOOR = 1e-12
CONFIDENCE_FLOOR = 1e-6


# Variant name -> the map g of the confidence g(1/mu), in report order.
VARIANTS = {"linear": lambda x: x, "log": np.log}


def _g(variant: str):
    try:
        return VARIANTS[variant]
    except (KeyError, TypeError):
        raise ValueError(f"unknown confidence variant {variant!r}") from None


def raw_confidence(uncertainties, variant: str = "log") -> np.ndarray:
    """Pre-normalization confidence scores g(1/mu), floored, of (..., K) mu.

    A NaN or negative mu is refused, naming the first such member (and
    row): the floor would otherwise give a negative mu the largest
    weight.  An infinite mu is legal and scores the floor, without a
    warning from the log variant's log(0).
    """
    u = np.asarray(uncertainties, dtype=np.float64)
    if not (u >= 0.0).all():
        i = np.flatnonzero(~(u >= 0.0))[0]
        row, k = divmod(i, u.shape[-1] if u.ndim else 1)
        at = f"row {row}, " if u.ndim > 1 else ""
        raise ValueError(f"{at}member {k}: uncertainty mu must be non-negative, got {u.flat[i]}")
    with np.errstate(divide="ignore"):
        return np.maximum(_g(variant)(1.0 / np.maximum(u, SIGMA_FLOOR)), CONFIDENCE_FLOOR)


def aggregate(means, weights) -> np.ndarray:
    """Weighted angular average of unit estimates, in spherical coordinates.

    Takes (..., K, 3) means, which ``to_spherical`` checks, and (..., K)
    weights, each row on the simplex, and returns (..., 3) inside the
    members' angular envelope.
    A (1, K) @ (K, 1) product per row rounds as an unbatched call does.
    A fused direction that ``from_spherical`` refuses, on the octant's
    edge, is named by its first such row, as ``raw_confidence`` names
    a hostile mu.
    """
    means = np.asarray(means, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if means.ndim < 2 or means.shape[-1] != 3 or weights.shape != means.shape[:-1]:
        raise ValueError("expected (..., K, 3) means and (..., K) weights")
    # Asked in the positive form, so NaN weights fail too.
    if not (np.all(weights >= 0.0) and np.all(abs(weights.sum(axis=-1) - 1.0) <= 1e-9)):
        raise ValueError("weights must be non-negative and sum to 1")
    w = weights[..., None, :]
    return from_spherical([(w @ angle[..., None])[..., 0, 0] for angle in to_spherical(means)])


def combine(means, mus, variant: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fused, weights, raw scores) of (..., K, 3) member means and (..., K) mu."""
    raw = raw_confidence(mus, variant)
    weights = raw / raw.sum(axis=-1, keepdims=True)
    return aggregate(means, weights), weights, raw


@dataclass(frozen=True)
class FusionResult:
    """Fused estimate plus everything that went into it."""

    fused: np.ndarray
    estimates: tuple[MCEstimate, ...]
    weights: np.ndarray
    raw_scores: np.ndarray


def member_seed(base_seed: int, k: int) -> int:
    """Member k's MC base seed under the ensemble's ``base_seed``: its own,
    so adding a member perturbs no other."""
    return derive_seed("ensemble-member", base_seed, k)


def ensemble_estimates(nets, pixels, nu: int = 30, base_seed: int = 0) -> list[MCEstimate]:
    """MC estimate per member under its ``member_seed``."""
    return [mc_estimate(net, pixels, nu, member_seed(base_seed, k)) for k, net in enumerate(nets)]


def fuse(estimates, variant: str = "log") -> FusionResult:
    """Weight per-model estimates by confidence and average them angularly."""
    estimates = tuple(estimates)
    if not estimates:
        raise ValueError("need at least one member estimate")
    fused, weights, raw = combine([e.mean for e in estimates], [e.mu for e in estimates], variant)
    return FusionResult(fused=fused, estimates=estimates, weights=weights, raw_scores=raw)


def mcde(nets, pixels, nu: int = 30, base_seed: int = 0, variant: str = "log") -> FusionResult:
    """Full pipeline: per-model MC passes, confidences, angular fusion.

    With a single member the fused output is that member's MC mean (up
    to the spherical round-trip); with one member far more certain than
    the rest the fusion follows it.  An unknown ``variant`` and pixels
    that ``check_pixels`` refuses fail before any pass runs: the first
    member's ``mc_estimate`` checks them.
    """
    _g(variant)
    return fuse(ensemble_estimates(nets, pixels, nu, base_seed), variant)


def ideal_combine(estimates, gt, metric: str = "recovery") -> np.ndarray:
    """Oracle selection: the member estimate with the lowest error.

    Needs the ground truth, so it is a reporting bound, not an
    estimator.  Ties go to the lowest member index.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    estimates = [np.asarray(e, dtype=np.float64) for e in estimates]
    if not estimates:
        raise ValueError("need at least one candidate estimate")
    return estimates[int(np.argmin(METRICS[metric](gt, np.stack(estimates))))]

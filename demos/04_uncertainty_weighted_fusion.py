"""
Fusing ensemble members by their own confidence
===============================================

Given several MC-dropout estimates, the fusion turns each member's
total uncertainty mu into a confidence score g(1/mu), normalizes the
scores into weights on the simplex, and averages the member directions
in spherical coordinates.  The score functions g live in
``fusion.VARIANTS``: "linear" (identity) trusts a confident member
almost absolutely, while "log" compresses the ratios and behaves much
better when every member is somewhat wrong.
"""

import numpy as np

from mcde.color import from_spherical, to_spherical
from mcde.fusion import VARIANTS, fuse, ideal_combine
from mcde.mc import MCEstimate


def member(phi_deg, varphi_deg, mu):
    """Hand-built ensemble member with a chosen direction and mu."""
    mean = from_spherical(np.radians((phi_deg, varphi_deg)))
    sigma = np.full(3, mu ** (1.0 / 3.0)) if mu > 0 else np.zeros(3)
    return MCEstimate(mean=mean, sigma=sigma, mu=mu)


# Two members with EQUAL uncertainty split the weight evenly, and the
# fused direction lands at the midpoint of the two angle pairs:
# (40, 50) combined with (50, 60) gives exactly (45, 55).
result = fuse([member(40, 50, 1e-4), member(50, 60, 1e-4)], variant="log")
angles = to_spherical(result.fused)
print("equal-confidence weights:", result.weights)
print("fused angles:", np.round(np.degrees((angles.phi, angles.varphi)), 6))

# Unequal uncertainty shifts the weight.  The linear score is far more
# aggressive than the log score for the same mu ratio.
members = [member(40, 50, 1e-6), member(50, 60, 1e-4)]
for variant in VARIANTS:
    result = fuse(members, variant=variant)
    print(f"{variant:>6} weights for mu 1e-6 vs 1e-4:",
          np.round(result.weights, 4))

# A member whose passes all agree (mu = 0) is treated as certain and
# takes essentially all the weight.  (The log score is capped, so full
# dominance there needs the competitor to be genuinely uncertain;
# the linear score dominates at any ratio.)
result = fuse([member(40, 50, 0.0), member(70, 20, 1.0)], variant="log")
print("certain member weight (log):", result.weights[0])
result = fuse([member(40, 50, 0.0), member(70, 20, 0.5)], variant="linear")
print("certain member weight (linear):", result.weights[0])

# Weights always live on the simplex and never depend on the order the
# members are listed in.
result = fuse([member(a, b, m) for a, b, m in
               ((20, 30, 1e-3), (40, 50, 1e-5), (60, 70, 1e-4))])
print("\nweight sum:", result.weights.sum())
print("weights    :", np.round(result.weights, 4))

# For benchmarking there is also the ideal combination: an oracle that
# looks at the ground truth and picks whichever member is closest.  No
# selection-style ensemble can beat it, so it bounds what confidence
# weighting could ever achieve.
gt = from_spherical(np.radians((44.0, 52.0)))
picked = ideal_combine([m.mean for m in members], gt)
print("\nideal pick for gt at (44, 52):",
      np.round(np.degrees(np.array(to_spherical(picked))), 2))

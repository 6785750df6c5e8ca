"""
Illuminants, angular errors, and von Kries correction
=====================================================

An illuminant is the global light color of a scene, carried as a
strictly positive RGB unit vector.  This script walks through the
core representations: spherical coordinates on the positive octant,
the two angular error metrics, and the diagonal correction that
removes an estimated illuminant from an image.
"""

import numpy as np

from mcde import (
    NEUTRAL,
    apply_von_kries,
    from_spherical,
    normalize,
    recovery_error,
    reproduction_error,
    to_spherical,
)

# A warm (red-shifted) and a cool (blue-shifted) illuminant.  normalize
# rejects anything with a non-positive component, because a light that
# emits no energy in a channel destroys all color information there.
warm = normalize([1.0, 0.8, 0.6])
cool = normalize([0.6, 0.8, 1.0])
print("warm illuminant:", np.round(warm, 4))
print("cool illuminant:", np.round(cool, 4))

# Every valid illuminant lives on the unit sphere inside the open
# positive octant, so two angles identify it: the azimuth phi in the
# red-green plane and the inclination varphi away from the blue axis.
angles = to_spherical(warm)
print(f"warm in degrees: phi={np.degrees(angles.phi):.2f}, "
      f"varphi={np.degrees(angles.varphi):.2f}")

# The map is exactly invertible on the open octant.
back = from_spherical(angles)
print("round-trip error:", np.max(np.abs(back - warm)))

# The neutral direction (1,1,1)/sqrt(3) is the "no cast" reference:
# both of its angles are 45 degrees.
neutral_angles = to_spherical(NEUTRAL)
print(f"neutral angles: {np.degrees(neutral_angles.phi):.1f}, "
      f"{np.degrees(neutral_angles.varphi):.1f}")

# Recovery error is the plain angle between truth and estimate.
# Reproduction error instead measures how far the per-channel ratio
# gt/est sits from neutral: it asks "how wrong would the corrected
# image look", which penalizes channel-wise mistakes differently.
print("\nrecovery  warm vs cool:", round(recovery_error(warm, cool), 3), "deg")
print("reproduction warm vs cool:", round(reproduction_error(warm, cool), 3), "deg")

# Estimating neutral reduces reproduction error to recovery error
# exactly; for other estimates the two metrics genuinely differ.
print("reproduction warm vs neutral:",
      round(reproduction_error(warm, NEUTRAL), 3), "deg")
print("recovery  warm vs neutral:",
      round(recovery_error(warm, NEUTRAL), 3), "deg")

# Finally, von Kries correction: divide each channel by the estimated
# illuminant component and rescale so the brightest value is kept.
# A scene lit by `warm` and corrected with the exact estimate becomes
# achromatic again.
rng = np.random.default_rng(7)
reflectance = rng.uniform(0.2, 0.9, size=(4, 4, 1))
pixels = (reflectance * warm).astype(np.float64)
corrected = apply_von_kries(pixels, warm)
per_pixel_spread = corrected.max(axis=-1) - corrected.min(axis=-1)
print("\nmax channel spread after exact correction:",
      float(per_pixel_spread.max()))

"""Color and direction primitives for illuminant estimation.

Conventions used throughout the package:

* An illuminant is a strictly positive RGB direction with unit L2 norm,
  stored as a float64 array of shape (3,).  All functions here also
  accept stacked inputs of shape (..., 3) and broadcast over the
  leading axes.
* Angles are radians internally; the error metrics report degrees.
* The spherical parameterization measures the azimuth ``phi`` in the
  r-g plane and the inclination ``varphi`` down from the blue axis::

      phi    = atan2(g, r)
      varphi = atan2(sqrt(r**2 + g**2), b)

  The squared radicand is required for this map to invert
  ``from_spherical`` exactly; with it, conversions round-trip to well
  below 1e-9 radians.  Strictly positive vectors land in the open
  square (0, pi/2) x (0, pi/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "NEUTRAL",
    "DIV_EPS",
    "Scene",
    "SphericalDir",
    "normalize",
    "check_label",
    "recovery_error",
    "reproduction_error",
    "METRICS",
    "to_spherical",
    "from_spherical",
    "apply_von_kries",
]

# Equal-energy white direction (1,1,1)/sqrt(3).
NEUTRAL = np.ones(3) / np.sqrt(3.0)
NEUTRAL.setflags(write=False)

# Guard for the element-wise division inside reproduction_error.
DIV_EPS = 1e-12


class SphericalDir(NamedTuple):
    """Direction in the positive octant as (azimuth, inclination) radians."""

    phi: float | np.ndarray
    varphi: float | np.ndarray


@dataclass
class Scene:
    """Linear-RGB image paired with its ground-truth illuminant.

    pixels: (H, W, 3) float32 array, all values >= 0.
    label:  (3,) float64 unit-norm illuminant with strictly positive
            components, as ``check_label`` checks.
    """

    pixels: np.ndarray
    label: np.ndarray


def _scalar(a: np.ndarray):
    return a[()] if a.ndim == 0 else a


def normalize(v) -> np.ndarray:
    """Scale a strictly positive RGB vector to unit L2 norm.

    Raises ValueError if any component is non-positive or non-finite
    (this also rejects the zero vector).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != 3:
        raise ValueError("expected RGB input with a trailing axis of size 3")
    if not np.all(np.isfinite(v)):
        raise ValueError("illuminant components must be finite")
    if np.any(v <= 0.0):
        raise ValueError("illuminant components must be strictly positive")
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def check_label(label, where: str = "") -> None:
    """Raise ValueError, its message led by ``where``, unless ``label`` is
    an illuminant: three finite, strictly positive components whose L2
    norm lies within 1e-9 of 1."""
    label = np.asarray(label, dtype=np.float64)
    if label.shape != (3,):
        raise ValueError(f"{where}label must have shape (3,), got {label.shape}")
    if not np.all(np.isfinite(label) & (label > 0.0)):
        raise ValueError(f"{where}components must be finite and positive")
    norm = float(np.linalg.norm(label))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"{where}label must have unit norm, got {norm}")


def _check_norms(name: str, norm) -> None:
    """Raise ValueError, naming ``name``, unless every norm is finite and
    nonzero (NaN fails both bounds): the angle of a vector that is not
    finite or has zero norm is undefined."""
    if not ((norm > 0.0) & (norm < np.inf)).all():
        raise ValueError(f"{name} vectors must be finite with a nonzero norm")


def recovery_error(gt, est):
    """Angle in degrees between ground truth and estimate.

    Scale invariant by construction (both arguments are divided by
    their norms) and symmetric in its arguments.  The cosine is clamped
    to [-1, 1] so near-parallel pairs never hit an arccos domain error.
    A vector that is not finite or has zero norm raises ValueError.
    """
    gt = np.asarray(gt, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    gt_norm = np.linalg.norm(gt, axis=-1)
    est_norm = np.linalg.norm(est, axis=-1)
    _check_norms("gt", gt_norm)
    _check_norms("est", est_norm)
    dot = np.sum(gt * est, axis=-1)
    denom = gt_norm * est_norm
    cos = np.clip(dot / denom, -1.0, 1.0)
    return _scalar(np.degrees(np.arccos(cos)))


def reproduction_error(gt, est):
    """Angle in degrees between gt/est (element-wise) and the neutral axis.

    Measures how far a scene corrected with ``est`` ends up from
    neutral white.  Any estimate component at or below ``DIV_EPS``
    raises ValueError, as does a vector that is not finite or has zero
    norm.

    A neutral estimate (all components bit-equal) leaves the direction
    of ``gt`` untouched, so that case is routed through
    ``recovery_error(gt, NEUTRAL)`` and the algebraic identity
    ``reproduction_error(gt, n) == recovery_error(gt, n)`` holds
    exactly, not merely to round-off.
    """
    gt = np.asarray(gt, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    _check_norms("est", np.linalg.norm(est, axis=-1))
    if np.any(est <= DIV_EPS):
        raise ValueError(
            f"estimate components must exceed {DIV_EPS} for per-channel division"
        )
    ratio = gt / est
    ratio_norm = np.linalg.norm(ratio, axis=-1)
    _check_norms("gt", ratio_norm)  # est is finite and positive here
    # A (1, 3) @ (3, 1) product per row, so a stacked call rounds as one row does.
    dot = (ratio[..., None, :] @ NEUTRAL[:, None])[..., 0, 0]
    cos = np.clip(dot / ratio_norm, -1.0, 1.0)
    ang = np.degrees(np.arccos(cos))
    neutral = (est[..., 0] == est[..., 1]) & (est[..., 1] == est[..., 2])
    if np.any(neutral):
        ang = np.where(neutral, recovery_error(gt, NEUTRAL), ang)
    return _scalar(np.asarray(ang))


# Error metric by name, in report order.
METRICS = {"recovery": recovery_error, "reproduction": reproduction_error}


def to_spherical(illuminant) -> SphericalDir:
    """Map a strictly positive direction to (azimuth, inclination) radians."""
    v = np.asarray(illuminant, dtype=np.float64)
    r, g, b = v[..., 0], v[..., 1], v[..., 2]
    phi = np.arctan2(g, r)
    varphi = np.arctan2(np.hypot(r, g), b)
    return SphericalDir(_scalar(phi), _scalar(varphi))


def from_spherical(direction) -> np.ndarray:
    """Unit vector for (azimuth, inclination) angles in the open octant.

    Accepts a SphericalDir or any (phi, varphi) pair, each scalar or
    array.  Angles must lie strictly inside (0, pi/2); the boundary
    would produce a zero component, which is not a valid illuminant.
    An array angle outside is refused naming its first such row.
    """
    phi, varphi = direction
    phi = np.asarray(phi, dtype=np.float64)
    varphi = np.asarray(varphi, dtype=np.float64)
    half_pi = 0.5 * np.pi
    for name, ang in (("phi", phi), ("varphi", varphi)):
        outside = (ang <= 0.0) | (ang >= half_pi)
        if outside.any():
            at = f"row {np.flatnonzero(outside)[0]}: " if ang.ndim else ""
            raise ValueError(f"{at}{name} must lie strictly inside (0, pi/2)")
    sin_v = np.sin(varphi)
    return np.stack(
        [sin_v * np.cos(phi), sin_v * np.sin(phi), np.cos(varphi)], axis=-1
    )


def apply_von_kries(pixels, est) -> np.ndarray:
    """Divide out an estimated illuminant, preserving the peak value.

    Each channel is divided by the matching component of ``est``, then
    the whole image is rescaled so its maximum channel value matches
    the input's.  Takes an (H, W, 3) array and returns float64 pixels.
    A neutral estimate leaves the image unchanged up to round-off, so
    correction with NEUTRAL is idempotent.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    if est.shape != (3,):
        raise ValueError("estimate must be a single RGB vector of shape (3,)")
    if np.any(est <= 0.0) or not np.all(np.isfinite(est)):
        raise ValueError("estimate components must be strictly positive")
    corrected = pixels / est
    peak = corrected.max()
    if peak > 0.0:
        corrected *= pixels.max() / peak
    return corrected

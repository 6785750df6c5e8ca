"""Grey-world and shades-of-grey baselines."""

import numpy as np
import pytest

from mcde.baselines import grey_world, shades_of_grey
from mcde.color import normalize, recovery_error


def oracle_grey_world(pixels):
    """Reference with scalar loops: normalized per-channel mean."""
    h, w, _ = pixels.shape
    means = [float(np.float64(0)) for _ in range(3)]
    for c in range(3):
        total = 0.0
        for i in range(h):
            for j in range(w):
                total += float(pixels[i, j, c])
        means[c] = total / (h * w)
    norm = sum(m * m for m in means) ** 0.5
    return np.array([m / norm for m in means])


class TestGreyWorld:
    def test_recovers_illuminant_of_grey_scene(self):
        """Uniform reflectance satisfies the grey-world assumption exactly."""
        rng = np.random.default_rng(92)
        label = normalize([0.7, 0.5, 0.2])
        reflectance = rng.uniform(0.1, 1.0, (6, 6, 1))
        pixels = reflectance * label
        np.testing.assert_allclose(grey_world(pixels), label, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(93)
        pixels = rng.uniform(0.0, 1.0, (5, 4, 3))
        np.testing.assert_allclose(
            grey_world(pixels), oracle_grey_world(pixels), atol=1e-9
        )

    def test_all_black_channel_is_rejected(self):
        pixels = np.ones((3, 3, 3))
        pixels[..., 2] = 0.0
        with pytest.raises(ValueError):
            grey_world(pixels)


class TestShadesOfGrey:
    def test_p1_reduces_to_grey_world(self):
        rng = np.random.default_rng(95)
        pixels = rng.uniform(0.0, 1.0, (6, 5, 3))
        np.testing.assert_allclose(
            shades_of_grey(pixels, 1.0), grey_world(pixels), atol=1e-12
        )

    def test_matches_scalar_oracle_at_p6(self):
        rng = np.random.default_rng(96)
        pixels = rng.uniform(0.0, 1.0, (5, 4, 3))
        pooled = [
            float(np.mean(pixels[..., c] ** 6.0)) ** (1.0 / 6.0) for c in range(3)
        ]
        norm = sum(m * m for m in pooled) ** 0.5
        np.testing.assert_allclose(
            shades_of_grey(pixels, 6.0), [m / norm for m in pooled], atol=1e-9
        )

    def test_large_p_approaches_brightest_pixel(self):
        rng = np.random.default_rng(97)
        pixels = rng.uniform(0.0, 0.2, (8, 8, 3))
        bright = np.array([0.9, 0.6, 0.3])
        pixels[4, 4] = bright
        est = shades_of_grey(pixels, 40.0)
        assert recovery_error(est, bright) < 0.5

    def test_exposure_invariance(self):
        rng = np.random.default_rng(98)
        pixels = rng.uniform(0.0, 1.0, (6, 6, 3))
        np.testing.assert_allclose(
            shades_of_grey(2.0 * pixels, 6.0), shades_of_grey(pixels, 6.0), atol=1e-12
        )

    def test_rejects_orders_below_one(self):
        for p in (0.5, float("nan")):
            with pytest.raises(ValueError):
                shades_of_grey(np.ones((2, 2, 3)), p)

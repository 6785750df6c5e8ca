"""Color primitives: normalization, error metrics, spherical maps, correction.

Expected values come from closed-form scalar oracles evaluated with the
math module, independent of the vectorized implementations under test.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcde.color import (
    DIV_EPS,
    METRICS,
    NEUTRAL,
    SphericalDir,
    apply_von_kries,
    check_label,
    from_spherical,
    normalize,
    recovery_error,
    reproduction_error,
    to_spherical,
)


def oracle_angle_deg(u, v) -> float:
    """Angle between two vectors via scalar math, the reference formula."""
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return math.degrees(math.acos(min(1.0, max(-1.0, dot / (nu * nv)))))


def oracle_reproduction_deg(gt, est) -> float:
    ratio = [g / e for g, e in zip(gt, est)]
    return oracle_angle_deg(ratio, (1.0, 1.0, 1.0))


def random_positive_units(rng, n):
    v = rng.uniform(0.05, 1.0, (n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# Strictly positive RGB vectors of any scale and chromaticity.
positive_rgb = st.tuples(*[st.floats(1e-3, 1e3)] * 3).map(np.array)
open_angle = st.floats(1e-6, math.pi / 2 - 1e-6)
scale = st.floats(1e-3, 1e3)


class TestNormalize:
    def test_unit_norm_and_direction(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(0.1, 5.0, (200, 3))
        out = normalize(v)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            out, v / np.linalg.norm(v, axis=1, keepdims=True), atol=1e-15
        )

    def test_scalar_input_shape(self):
        out = normalize([3.0, 4.0, 12.0])
        assert out.shape == (3,)
        np.testing.assert_allclose(out, [3 / 13, 4 / 13, 12 / 13], atol=1e-15)

    @pytest.mark.parametrize(
        "bad",
        [
            [0.0, 1.0, 1.0],
            [-1.0, 1.0, 1.0],
            [np.nan, 1.0, 1.0],
            [np.inf, 1.0, 1.0],
        ],
    )
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            normalize(bad)

    def test_rejects_wrong_trailing_axis(self):
        with pytest.raises(ValueError):
            normalize(np.ones((4, 2)))


class TestCheckLabel:
    """Its value rules are pinned through ``datagen.load`` and ``train``."""

    def test_accepts_illuminants(self):
        check_label(NEUTRAL)
        check_label(normalize([0.2, 0.5, 0.9]), "scene 0: ")

    @pytest.mark.parametrize("label, shape", [([0.6, 0.8], "(2,)"), ([NEUTRAL], "(1, 3)")])
    def test_refuses_any_shape_but_three(self, label, shape):
        message = re.escape(f"scene 7: label must have shape (3,), got {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_label(label, "scene 7: ")


class TestRecoveryError:
    def test_hand_values(self):
        assert recovery_error([1, 2, 3], [3, 2, 1]) == pytest.approx(
            44.415308597192976, abs=1e-12
        )
        assert recovery_error([1, 1, 1], [1, 1, 4]) == pytest.approx(
            35.264389682754654, abs=1e-12
        )

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(7)
        gt = random_positive_units(rng, 300)
        est = random_positive_units(rng, 300)
        got = recovery_error(gt, est)
        want = [oracle_angle_deg(g, e) for g, e in zip(gt, est)]
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_identical_vectors_are_numerically_zero(self):
        rng = np.random.default_rng(8)
        v = random_positive_units(rng, 100)
        assert np.max(recovery_error(v, v)) < 1e-4

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(9)
        a = random_positive_units(rng, 100)
        b = random_positive_units(rng, 100)
        np.testing.assert_allclose(
            recovery_error(a, b), recovery_error(b, a), atol=1e-12
        )
        np.testing.assert_allclose(
            recovery_error(a, 7.25 * b), recovery_error(a, b), atol=1e-10
        )

    def test_batch_shape(self):
        rng = np.random.default_rng(10)
        a = random_positive_units(rng, 17)
        b = random_positive_units(rng, 17)
        assert recovery_error(a, b).shape == (17,)
        assert np.ndim(recovery_error(a[0], b[0])) == 0


@pytest.mark.parametrize("metric", [recovery_error, reproduction_error])
@pytest.mark.parametrize(
    "gt, est, name",
    [
        ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], "est"),
        ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], "gt"),
        ([np.nan, 1.0, 1.0], [1.0, 1.0, 1.0], "gt"),
        ([1.0, 1.0, 1.0], [np.inf, 1.0, 1.0], "est"),
        ([-np.inf, 1.0, 1.0], [1.0, 1.0, 1.0], "gt"),
        ([[1.0, 2.0, 3.0], [1e-300, 0.0, 0.0]], [1.0, 1.0, 1.0], "gt"),
        ([1.0, 2.0, 3.0], [[[1.0, 1.0, 1.0]], [[1.0, np.nan, 1.0]]], "est"),
    ],
    ids=["zero-est", "zero-gt", "nan-gt", "inf-est", "neg-inf-gt", "stacked-gt", "stacked-est"],
)
def test_degenerate_vectors_are_refused(metric, gt, est, name):
    """A vector that is not finite or has zero norm has no angle to
    another: the metrics raise, naming the argument, instead of
    returning NaN or a finite angle.  A norm that underflows to 0
    counts as zero."""
    with pytest.raises(ValueError, match=f"^{name} vectors must be finite with a nonzero norm$"):
        metric(gt, est)


class TestReproductionError:
    def test_hand_value(self):
        assert reproduction_error([1, 2, 2], [2, 2, 1]) == pytest.approx(
            28.125505702055708, abs=1e-12
        )

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(12)
        gt = random_positive_units(rng, 300)
        est = random_positive_units(rng, 300)
        got = reproduction_error(gt, est)
        want = [oracle_reproduction_deg(g, e) for g, e in zip(gt, est)]
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_neutral_estimate_equals_recovery_exactly(self):
        """An achromatic estimate reduces to recovery against neutral.

        The equality is required to be exact (bit-level), not merely
        within round-off, for every positive scale of the neutral
        direction.
        """
        rng = np.random.default_rng(13)
        gt = random_positive_units(rng, 200)
        scales = rng.uniform(0.02, 40.0, 200)
        for g, c in zip(gt, scales):
            want = recovery_error(g, NEUTRAL)
            assert reproduction_error(g, NEUTRAL) == want
            assert reproduction_error(g, [c, c, c]) == want

    def test_scale_invariance_in_estimate(self):
        rng = np.random.default_rng(14)
        gt = random_positive_units(rng, 100)
        est = random_positive_units(rng, 100)
        np.testing.assert_allclose(
            reproduction_error(gt, 3.5 * est),
            reproduction_error(gt, est),
            atol=1e-10,
        )

    @pytest.mark.parametrize(
        "est", [[1.0, 1.0, 0.0], [1.0, -0.5, 1.0], [1.0, 1.0, DIV_EPS]]
    )
    def test_rejects_tiny_or_nonpositive_components(self, est):
        with pytest.raises(ValueError):
            reproduction_error([0.5, 0.5, 0.5], est)

    def test_batch_with_neutral_rows(self):
        """The exact neutral branch must not disturb other rows: every
        row, neutral or not, matches the scalar call bit for bit."""
        rng = np.random.default_rng(15)
        gt = random_positive_units(rng, 4)
        est = random_positive_units(rng, 4)
        est[2] = 0.7
        got = reproduction_error(gt, est)
        for i in range(4):
            assert got[i] == reproduction_error(gt[i], est[i])


class TestSphericalMaps:
    def test_from_spherical_hand_value(self):
        v = from_spherical(SphericalDir(math.radians(30), math.radians(45)))
        want = [math.sqrt(6) / 4, math.sqrt(2) / 4, math.sqrt(2) / 2]
        np.testing.assert_allclose(v, want, atol=1e-15)

    def test_to_spherical_hand_value(self):
        phi, varphi = to_spherical(NEUTRAL)
        assert math.degrees(phi) == pytest.approx(45.0, abs=1e-12)
        assert math.degrees(varphi) == pytest.approx(
            54.735610317245346, abs=1e-12
        )

    def test_roundtrip_from_vectors(self):
        rng = np.random.default_rng(16)
        v = random_positive_units(rng, 2000)
        back = from_spherical(to_spherical(v))
        np.testing.assert_allclose(back, v, atol=1e-12)

    def test_roundtrip_from_angles(self):
        rng = np.random.default_rng(17)
        phi = rng.uniform(1e-3, math.pi / 2 - 1e-3, 2000)
        varphi = rng.uniform(1e-3, math.pi / 2 - 1e-3, 2000)
        got_phi, got_varphi = to_spherical(from_spherical((phi, varphi)))
        np.testing.assert_allclose(got_phi, phi, atol=1e-12)
        np.testing.assert_allclose(got_varphi, varphi, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(18)
        v = random_positive_units(rng, 100)
        phi, varphi = to_spherical(v)
        for i in range(100):
            r, g, b = v[i]
            assert phi[i] == pytest.approx(math.atan2(g, r), abs=1e-15)
            assert varphi[i] == pytest.approx(
                math.atan2(math.sqrt(r * r + g * g), b), abs=1e-15
            )

    @pytest.mark.parametrize(
        "phi,varphi",
        [
            (0.0, 0.5),
            (math.pi / 2, 0.5),
            (0.5, 0.0),
            (0.5, math.pi / 2),
            (-0.1, 0.5),
            (0.5, 2.0),
        ],
    )
    def test_from_spherical_rejects_boundary(self, phi, varphi):
        with pytest.raises(ValueError):
            from_spherical(SphericalDir(phi, varphi))

    def test_array_angles_produce_stacked_vectors(self):
        phi = np.full(5, 0.4)
        varphi = np.full(5, 0.9)
        out = from_spherical(SphericalDir(phi, varphi))
        assert out.shape == (5, 3)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-15)


class TestProperties:
    @given(positive_rgb)
    def test_roundtrip_from_vectors(self, v):
        np.testing.assert_allclose(
            from_spherical(to_spherical(v)), v / np.linalg.norm(v), atol=1e-12, rtol=0.0
        )

    @given(open_angle, open_angle)
    def test_roundtrip_from_angles(self, phi, varphi):
        got_phi, got_varphi = to_spherical(from_spherical((phi, varphi)))
        assert got_phi == pytest.approx(phi, abs=1e-12)
        assert got_varphi == pytest.approx(varphi, abs=1e-12)

    @pytest.mark.parametrize("metric", METRICS)
    @given(gt=positive_rgb, est=positive_rgb, a=scale, b=scale)
    def test_metrics_are_scale_invariant(self, metric, gt, est, a, b):
        """Tolerance: a cosine one rounding below 1 is already ~2e-6 degrees."""
        fn = METRICS[metric]
        assert fn(a * gt, b * est) == pytest.approx(fn(gt, est), abs=1e-5)

    @pytest.mark.parametrize("metric", METRICS)
    def test_stacked_call_equals_row_calls_bit_for_bit(self, metric):
        """One call on (n, 3) arrays gives each row's scalar result
        exactly, so a report scored in one call per method holds the
        same bytes as one scored row by row."""
        rng = np.random.default_rng(22)
        gt = random_positive_units(rng, 2000)
        est = random_positive_units(rng, 2000) * rng.uniform(0.01, 100.0, (2000, 1))
        est[::9] = est[::9, :1]  # neutral rows
        fn = METRICS[metric]
        want = np.array([fn(g, e) for g, e in zip(gt, est)])
        assert fn(gt, est).tobytes() == want.tobytes()


class TestApplyVonKries:
    def test_neutral_estimate_is_identity(self):
        rng = np.random.default_rng(19)
        pixels = rng.uniform(0.0, 1.0, (6, 4, 3))
        out = apply_von_kries(pixels, [0.25, 0.25, 0.25])
        np.testing.assert_allclose(out, pixels, atol=1e-12)

    def test_true_illuminant_makes_grey_scene_achromatic(self):
        rng = np.random.default_rng(20)
        reflectance = rng.uniform(0.1, 1.0, (5, 5, 1))
        label = normalize([0.8, 0.5, 0.3])
        pixels = reflectance * label
        out = apply_von_kries(pixels, label)
        np.testing.assert_allclose(out[..., 0], out[..., 1], atol=1e-12)
        np.testing.assert_allclose(out[..., 1], out[..., 2], atol=1e-12)

    def test_peak_preserved(self):
        rng = np.random.default_rng(21)
        pixels = rng.uniform(0.0, 2.0, (8, 3, 3))
        est = normalize(rng.uniform(0.2, 1.0, 3))
        out = apply_von_kries(pixels, est)
        assert out.max() == pytest.approx(pixels.max(), abs=1e-12)

    @pytest.mark.parametrize(
        "est",
        [[1.0, 1.0], [1.0, 0.0, 1.0], [1.0, -1.0, 1.0], [np.nan, 1.0, 1.0]],
    )
    def test_rejects_bad_estimates(self, est):
        with pytest.raises(ValueError):
            apply_von_kries(np.ones((2, 2, 3)), est)

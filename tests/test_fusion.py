"""Confidence scoring and angular fusion invariants."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcde.color import SphericalDir, from_spherical, recovery_error, to_spherical
from mcde.fusion import (
    CONFIDENCE_FLOOR,
    SIGMA_FLOOR,
    aggregate,
    confidence_scores,
    ensemble_estimates,
    fuse,
    ideal_combine,
    mcde,
    raw_confidence,
)
from mcde.mc import MCEstimate, derive_member_seed, mc_estimate
from mcde.nn import build


def stub_estimate(mean, mu):
    mean = np.asarray(mean, dtype=np.float64)
    mean = mean / np.linalg.norm(mean)
    sigma = np.full(3, mu ** (1.0 / 3.0)) if mu > 0 else np.zeros(3)
    return MCEstimate(mean=mean, sigma=sigma, mu=float(mu), passes=30)


uncertainties = st.lists(st.floats(0.0, 1e6), min_size=1, max_size=6).map(np.array)
variants = st.sampled_from(["linear", "log"])
positive_rgb = st.tuples(*[st.floats(1e-3, 1.0)] * 3).map(np.array)


def direction(phi_deg, varphi_deg):
    return from_spherical(
        SphericalDir(math.radians(phi_deg), math.radians(varphi_deg))
    )


class TestRawConfidence:
    def test_linear_values(self):
        np.testing.assert_array_equal(
            raw_confidence([2.0, 0.5], "linear"), [0.5, 2.0]
        )

    def test_linear_floors(self):
        got = raw_confidence([0.0, 1e-15, 1e9], "linear")
        assert got[0] == 1.0 / SIGMA_FLOOR
        assert got[1] == 1.0 / SIGMA_FLOOR
        assert got[2] == CONFIDENCE_FLOOR

    def test_log_values(self):
        assert raw_confidence([1.0 / math.e], "log")[0] == pytest.approx(1.0, abs=1e-12)
        assert raw_confidence([0.0], "log")[0] == pytest.approx(
            math.log(1.0 / SIGMA_FLOOR), abs=1e-12
        )

    def test_log_floors_uninformative_members(self):
        """mu >= 1 makes log(1/mu) <= 0, clamped to the confidence floor."""
        got = raw_confidence([1.0, 2.0, 10.0], "log")
        np.testing.assert_array_equal(got, [CONFIDENCE_FLOOR] * 3)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            raw_confidence([1.0], "cubic")


class TestConfidenceScores:
    @pytest.mark.parametrize("variant", ["linear", "log"])
    def test_simplex(self, variant):
        rng = np.random.default_rng(80)
        for _ in range(20):
            mus = rng.uniform(0.0, 2.0, rng.integers(1, 6))
            w = confidence_scores(mus, variant)
            assert np.all(w > 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_lower_uncertainty_never_gets_less_weight(self):
        rng = np.random.default_rng(81)
        for variant in ("linear", "log"):
            mus = np.sort(rng.uniform(1e-6, 1.5, 5))
            w = confidence_scores(mus, variant)
            assert np.all(np.diff(w) <= 1e-15)


class TestProperties:
    @given(uncertainties, variants)
    def test_confidence_scores_lie_on_the_simplex(self, mus, variant):
        w = confidence_scores(mus, variant)
        assert w.shape == mus.shape
        assert np.all(w > 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12

    @given(st.lists(st.tuples(positive_rgb, st.floats(0.0, 2.0)), min_size=1, max_size=5), variants)
    def test_aggregate_stays_inside_the_envelope(self, members, variant):
        means = np.stack([v / np.linalg.norm(v) for v, _ in members])
        weights = confidence_scores([mu for _, mu in members], variant)
        phis, varphis = to_spherical(means)
        phi, varphi = to_spherical(aggregate(means, weights))
        assert phis.min() - 1e-12 <= phi <= phis.max() + 1e-12
        assert varphis.min() - 1e-12 <= varphi <= varphis.max() + 1e-12


class TestAggregate:
    def test_two_member_hand_example(self):
        """Averaging (40, 50) and (50, 60) degree members at equal weight
        must land on (45, 55) degrees."""
        means = np.stack([direction(40, 50), direction(50, 60)])
        fused = aggregate(means, np.array([0.5, 0.5]))
        np.testing.assert_allclose(fused, direction(45, 55), atol=1e-9)
        phi, varphi = to_spherical(fused)
        assert math.degrees(phi) == pytest.approx(45.0, abs=1e-9)
        assert math.degrees(varphi) == pytest.approx(55.0, abs=1e-9)

    def test_single_member_round_trips(self):
        rng = np.random.default_rng(82)
        v = rng.uniform(0.1, 1.0, 3)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(aggregate(v[None], np.array([1.0])), v, atol=1e-12)

    def test_full_weight_on_one_member(self):
        means = np.stack([direction(20, 30), direction(70, 60)])
        fused = aggregate(means, np.array([1.0, 0.0]))
        np.testing.assert_allclose(fused, means[0], atol=1e-12)

    def test_rejects_bad_weights(self):
        means = np.stack([direction(40, 50), direction(50, 60)])
        with pytest.raises(ValueError):
            aggregate(means, np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            aggregate(means, np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            aggregate(means, np.array([1.0]))


class TestFuse:
    def test_empty_ensemble(self):
        with pytest.raises(ValueError):
            fuse([])

    def test_weights_match_confidence_scores(self):
        ests = [stub_estimate([1, 2, 3], 0.02), stub_estimate([3, 2, 1], 0.4)]
        result = fuse(ests, "log")
        np.testing.assert_array_equal(
            result.raw_scores, raw_confidence([0.02, 0.4], "log")
        )
        np.testing.assert_allclose(
            result.weights, confidence_scores([0.02, 0.4], "log"), atol=1e-15
        )
        assert result.variant == "log"

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(83)
        ests = [
            stub_estimate(rng.uniform(0.1, 1.0, 3), mu)
            for mu in (0.01, 0.2, 0.05)
        ]
        forward = fuse(ests, "linear")
        reversed_ = fuse(ests[::-1], "linear")
        np.testing.assert_allclose(forward.fused, reversed_.fused, atol=1e-12)
        np.testing.assert_allclose(
            forward.weights, reversed_.weights[::-1], atol=1e-15
        )

    @pytest.mark.parametrize("variant", ["linear", "log"])
    def test_betweenness(self, variant):
        """Fused angles stay inside the members' angular envelope."""
        rng = np.random.default_rng(84)
        for _ in range(25):
            ests = [
                stub_estimate(rng.uniform(0.1, 1.0, 3), mu)
                for mu in rng.uniform(0.001, 1.5, 3)
            ]
            result = fuse(ests, variant)
            phis, varphis = to_spherical(np.stack([e.mean for e in ests]))
            phi, varphi = to_spherical(result.fused)
            assert phis.min() - 1e-12 <= phi <= phis.max() + 1e-12
            assert varphis.min() - 1e-12 <= varphi <= varphis.max() + 1e-12

    def test_certainty_dominance_linear(self):
        """A zero-spread member takes essentially all the weight."""
        certain = stub_estimate(direction(20, 30), 0.0)
        vague = stub_estimate(direction(70, 60), 0.1)
        result = fuse([certain, vague], "linear")
        assert result.weights[0] >= 1.0 - 1e-4
        assert recovery_error(certain.mean, result.fused) < 0.01

    def test_certainty_dominance_log(self):
        """The log variant saturates at ln(1/SIGMA_FLOOR), so dominance
        requires the competitor to be uninformative (mu >= 1)."""
        certain = stub_estimate(direction(20, 30), 0.0)
        vague = stub_estimate(direction(70, 60), 1.0)
        result = fuse([certain, vague], "log")
        assert result.weights[0] >= 1.0 - 1e-4
        assert recovery_error(certain.mean, result.fused) < 0.01


class TestPipeline:
    def test_ensemble_estimates_use_member_seeds(self):
        nets = [
            build("g-net", seed=85, channels=5, dropout_rate=0.3),
            build("m-net", seed=86, channels=5, dropout_rate=0.3),
        ]
        pixels = np.random.default_rng(87).uniform(0.0, 1.0, (8, 8, 3))
        ests = ensemble_estimates(nets, pixels, nu=4, base_seed=11)
        for k, net in enumerate(nets):
            manual = mc_estimate(net, pixels, 4, derive_member_seed(11, k))
            np.testing.assert_array_equal(ests[k].mean, manual.mean)
            np.testing.assert_array_equal(ests[k].sigma, manual.sigma)

    def test_mcde_is_fuse_of_ensemble_estimates(self):
        nets = [build("g-net", seed=88, channels=5, dropout_rate=0.3)]
        pixels = np.random.default_rng(89).uniform(0.0, 1.0, (8, 8, 3))
        direct = mcde(nets, pixels, nu=3, base_seed=5, variant="linear")
        manual = fuse(ensemble_estimates(nets, pixels, 3, 5), "linear")
        np.testing.assert_array_equal(direct.fused, manual.fused)

    def test_unknown_variant_fails_before_any_pass(self, monkeypatch):
        net = build("g-net", seed=92, channels=5, dropout_rate=0.3)
        calls = []
        monkeypatch.setattr(net, "forward_passes", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="unknown confidence variant 'lin'"):
            mcde([net, net], np.ones((8, 8, 3)), nu=30, variant="lin")
        assert calls == []

    def test_single_deterministic_model_passes_through(self):
        """K=1 with dropout 0: the fused output is the model's own
        estimate, up to the spherical round trip."""
        net = build("m-net", seed=90, channels=5, dropout_rate=0.0)
        pixels = np.random.default_rng(91).uniform(0.0, 1.0, (8, 8, 3))
        result = mcde([net], pixels, nu=4, base_seed=0)
        np.testing.assert_allclose(result.fused, net.forward(pixels), atol=1e-12)
        np.testing.assert_array_equal(result.weights, [1.0])


class TestIdealCombine:
    def test_picks_the_lowest_error_member(self):
        gt = direction(45, 45)
        close = direction(46, 45)
        far = direction(70, 70)
        np.testing.assert_array_equal(ideal_combine([far, close], gt), close)
        np.testing.assert_array_equal(ideal_combine([close, far], gt), close)

    def test_tie_goes_to_the_lowest_index(self):
        gt = direction(45, 45)
        a = direction(50, 45)
        b = a.copy()
        picked = ideal_combine([a, b], gt)
        assert picked is not b
        np.testing.assert_array_equal(picked, a)

    def test_supports_both_metrics(self):
        gt = direction(45, 45)
        candidates = [direction(50, 50), direction(44, 46)]
        for metric in ("recovery", "reproduction"):
            np.testing.assert_array_equal(
                ideal_combine(candidates, gt, metric), candidates[1]
            )

    def test_rejects_unknown_metric_and_empty_input(self):
        with pytest.raises(ValueError, match="metric"):
            ideal_combine([direction(45, 45)], direction(40, 40), "angular")
        with pytest.raises(ValueError):
            ideal_combine([], direction(40, 40))

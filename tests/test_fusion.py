"""Confidence scoring and angular fusion invariants."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcde.color import SphericalDir, from_spherical, normalize, recovery_error, to_spherical
from mcde.fusion import (
    CONFIDENCE_FLOOR,
    SIGMA_FLOOR,
    aggregate,
    combine,
    ensemble_estimates,
    fuse,
    ideal_combine,
    mcde,
    raw_confidence,
)
from mcde.mc import MCEstimate, mc_estimate
from mcde.nn import build
from mcde.seeding import derive_seed


def stub_estimate(mean, mu):
    mean = np.asarray(mean, dtype=np.float64)
    mean = mean / np.linalg.norm(mean)
    sigma = np.full(3, mu ** (1.0 / 3.0)) if mu > 0 else np.zeros(3)
    return MCEstimate(mean=mean, sigma=sigma, mu=float(mu))


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

    @pytest.mark.parametrize(
        "variant, want",
        [("linear", [CONFIDENCE_FLOOR, 10.0]), ("log", [CONFIDENCE_FLOOR, math.log(10.0)])],
        ids=["linear", "log"],
    )
    def test_an_infinite_mu_scores_the_floor(self, variant, want):
        """An infinite mu is a legal, maximally uncertain member; the log
        variant's log(1/inf) = log(0) must not warn."""
        np.testing.assert_allclose(raw_confidence([math.inf, 0.1], variant), want, rtol=1e-15)

    @pytest.mark.parametrize("variant", ["linear", "log"])
    @pytest.mark.parametrize(
        "mus, message",
        [
            ([-1.0, 0.1], "member 0: uncertainty mu must be non-negative, got -1.0"),
            ([0.1, math.nan], "member 1: uncertainty mu must be non-negative, got nan"),
            ([0.1, 0.2, -1e-300], "member 2: uncertainty mu must be non-negative, got -1e-300"),
        ],
        ids=["negative", "nan", "tiny-negative"],
    )
    def test_rejects_a_nan_or_negative_mu(self, variant, mus, message):
        """Floored, a negative mu would score 1/SIGMA_FLOOR and win the
        fusion; a NaN one would make the fused estimate NaN."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            raw_confidence(mus, variant)

    @pytest.mark.parametrize("variant", ["linear", "log"])
    def test_a_hostile_mu_in_a_batch_names_its_row_and_member(self, variant):
        """In (n, K) input the message names the row and the member on
        the last axis, not the flat index."""
        message = "^row 1, member 1: uncertainty mu must be non-negative, got nan$"
        with pytest.raises(ValueError, match=message):
            raw_confidence([[0.1, 0.2], [0.3, math.nan]], variant)
        mus = [[0.1, 0.2], [0.3, 0.4], [-1.0, 0.1], [0.1, 0.1]]
        with pytest.raises(ValueError, match="^row 2, member 0: .*, got -1.0$"):
            combine(np.full((4, 2, 3), 3.0**-0.5), mus, variant)


def fused_weights(mus, variant):
    """``fuse``'s weights for members with uncertainties ``mus``."""
    return fuse([stub_estimate([1.0, 2.0, 3.0], mu) for mu in mus], variant).weights


class TestConfidenceScores:
    @pytest.mark.parametrize("variant", ["linear", "log"])
    def test_simplex(self, variant):
        rng = np.random.default_rng(80)
        for _ in range(20):
            mus = rng.uniform(0.0, 2.0, rng.integers(1, 6))
            w = fused_weights(mus, variant)
            assert np.all(w > 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_lower_uncertainty_never_gets_less_weight(self):
        rng = np.random.default_rng(81)
        for variant in ("linear", "log"):
            mus = np.sort(rng.uniform(1e-6, 1.5, 5))
            w = fused_weights(mus, variant)
            assert np.all(np.diff(w) <= 1e-15)


class TestProperties:
    @given(uncertainties, variants)
    def test_confidence_scores_lie_on_the_simplex(self, mus, variant):
        w = fused_weights(mus, variant)
        assert w.shape == mus.shape
        assert np.all(w > 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12

    @given(st.lists(st.tuples(positive_rgb, st.floats(0.0, 2.0)), min_size=1, max_size=5), variants)
    def test_aggregate_stays_inside_the_envelope(self, members, variant):
        means = np.stack([v / np.linalg.norm(v) for v, _ in members])
        raw = raw_confidence([mu for _, mu in members], variant)
        weights = raw / raw.sum()
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

    @pytest.mark.parametrize(
        "means, weights, message",
        [
            ([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]], [math.nan, math.nan], "weights must be non-negative"),
            ([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]], [0.5, math.nan], "weights must be non-negative"),
            ([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]], [math.inf, -math.inf], "weights must be non-negative"),
            ([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]], [math.inf, 0.0], "weights must be non-negative"),
            ([[1.0, 1.0, 1.0], [1.0, math.nan, 3.0]], [0.5, 0.5], "means must be finite"),
            ([[1.0, 1.0, math.inf], [1.0, 2.0, 3.0]], [1.0, 0.0], "means must be finite"),
        ],
        ids=["nan-weights", "one-nan-weight", "inf-weights", "inf-weight", "nan-mean", "inf-mean"],
    )
    def test_rejects_non_finite_input(self, means, weights, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            aggregate(np.array(means), np.array(weights))


class TestFuse:
    def test_empty_ensemble(self):
        with pytest.raises(ValueError):
            fuse([])

    def test_a_hostile_mu_names_its_member(self):
        ests = [stub_estimate([1, 2, 3], 0.02), stub_estimate([3, 2, 1], 0.4)]
        ests[1] = MCEstimate(mean=ests[1].mean, sigma=ests[1].sigma, mu=math.nan)
        with pytest.raises(ValueError, match="^member 1: uncertainty mu must be non-negative"):
            fuse(ests, "log")

    def test_weights_match_confidence_scores(self):
        ests = [stub_estimate([1, 2, 3], 0.02), stub_estimate([3, 2, 1], 0.4)]
        result = fuse(ests, "log")
        raw = raw_confidence([0.02, 0.4], "log")
        np.testing.assert_array_equal(result.raw_scores, raw)
        np.testing.assert_allclose(result.weights, raw / raw.sum(), atol=1e-15)

    @pytest.mark.parametrize("variant", ["linear", "log"])
    def test_an_infinite_mu_gets_the_floor_weight(self, variant):
        ests = [stub_estimate([1, 2, 3], math.inf), stub_estimate([3, 2, 1], 0.1)]
        result = fuse(ests, variant)
        assert result.raw_scores[0] == CONFIDENCE_FLOOR
        assert result.weights[0] == CONFIDENCE_FLOOR / result.raw_scores.sum()

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


class TestCombine:
    @pytest.mark.parametrize("variant", ["linear", "log"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_a_batch_gives_each_rows_fuse_bytes(self, k, variant):
        """``combine`` over a scene axis is ``fuse`` per scene, bit for
        bit, with rows that hold mu = 0, mu = inf and mu >= 1; and each
        fused row is the scalar weighted sum of its members' angles."""
        rng = np.random.default_rng(95 + k)
        n = 150
        means = rng.uniform(0.05, 1.0, (n, k, 3))
        means /= np.linalg.norm(means, axis=-1, keepdims=True)
        mus = 10.0 ** rng.uniform(-8.0, 1.0, (n, k))
        special = rng.random((n, k)) < 0.2
        mus[special] = rng.choice([0.0, math.inf, 1.0, 3.0], special.sum())
        fused, weights, raw = combine(means, mus, variant)
        assert fused.shape == (n, 3) and weights.shape == raw.shape == (n, k)
        for i in range(n):
            members = [MCEstimate(mean=m, sigma=np.zeros(3), mu=mu) for m, mu in zip(means[i], mus[i])]
            want = fuse(members, variant)
            assert fused[i].tobytes() == want.fused.tobytes(), i
            assert weights[i].tobytes() == want.weights.tobytes(), i
            assert raw[i].tobytes() == want.raw_scores.tobytes(), i
            phi, varphi = to_spherical(means[i])
            scalar = from_spherical(SphericalDir(float(want.weights @ phi), float(want.weights @ varphi)))
            assert fused[i].tobytes() == scalar.tobytes(), i

    def test_aggregate_refuses_a_batch_with_one_row_off_the_simplex(self):
        means = np.stack([np.stack([direction(40, 50), direction(50, 60)])] * 3)
        weights = np.array([[0.5, 0.5], [0.7, 0.7], [1.0, 0.0]])
        with pytest.raises(ValueError, match="^weights must be non-negative and sum to 1$"):
            aggregate(means, weights)
        with pytest.raises(ValueError, match=r"^expected \(\.\.\., K, 3\) means"):
            aggregate(means, weights[:, :1])

    def test_a_fused_direction_on_the_octant_edge_names_its_row(self):
        """A member mean with azimuth exactly pi/2 fuses, alone or with
        itself, to a direction ``from_spherical`` refuses; in a batch the
        message names its row, and an unbatched call gives the bare one."""
        edge = normalize([1e-300, 0.6, 0.8])
        means = np.stack([np.stack([direction(40, 50), direction(50, 60)])] * 4)
        means[2] = edge
        with pytest.raises(ValueError, match=r"^row 2: phi must lie strictly inside \(0, pi/2\)$"):
            combine(means, np.zeros((4, 2)), "log")
        with pytest.raises(ValueError, match=r"^phi must lie strictly inside \(0, pi/2\)$"):
            combine(means[2], np.zeros(2), "log")


class TestPipeline:
    def test_ensemble_estimates_use_member_seeds(self):
        nets = [
            build("g-net", seed=85, channels=5, dropout_rate=0.3),
            build("m-net", seed=86, channels=5, dropout_rate=0.3),
        ]
        pixels = np.random.default_rng(87).uniform(0.0, 1.0, (8, 8, 3))
        ests = ensemble_estimates(nets, pixels, nu=4, base_seed=11)
        for k, net in enumerate(nets):
            manual = mc_estimate(net, pixels, 4, derive_seed("ensemble-member", 11, k))
            np.testing.assert_array_equal(ests[k].mean, manual.mean)
            np.testing.assert_array_equal(ests[k].sigma, manual.sigma)

    def test_member_seeds_are_distinct_and_stable(self):
        """Six copies of one network draw six different spreads, the
        same ones on every call, and adding a member never perturbs the
        members before it."""
        net = build("g-net", seed=93, channels=5, dropout_rate=0.3)
        pixels = np.random.default_rng(94).uniform(0.0, 1.0, (8, 8, 3))
        sigmas = [est.sigma.tobytes() for est in ensemble_estimates([net] * 6, pixels, 4, 9)]
        assert len(set(sigmas)) == 6
        for n in range(1, 6):
            prefix = ensemble_estimates([net] * n, pixels, 4, 9)
            assert [est.sigma.tobytes() for est in prefix] == sigmas[:n]

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

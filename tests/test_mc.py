"""Monte Carlo reduction: scripted stubs against brute-force references.

The stubs return fixed dyadic-rational outputs keyed by pass index, so
the expected mean and spread can be computed exactly with scalar
arithmetic and compared at 1e-12 or tighter.
"""

import math
import tracemalloc

import numpy as np
import pytest

from mcde.mc import derive_member_seed, mc_estimate
from mcde.nn import (
    Affine,
    Conv3x3,
    Dropout,
    MaxPool,
    MeanPool,
    Mode,
    Network,
    NumericError,
    PassSeed,
    PositiveHead,
    Relu,
    build,
)


class StubNet:
    """Scripted stand-in for a Network: output depends only on pass index."""

    def __init__(self, outputs):
        self.outputs = [np.asarray(o, dtype=np.float64) for o in outputs]

    def forward(self, pixels, mode=Mode.DETERMINISTIC, seed=None):
        if mode is Mode.DETERMINISTIC:
            return self.outputs[0]
        return self.outputs[seed.pass_index % len(self.outputs)]

    def forward_passes(self, pixels, seeds):
        return np.stack([self.forward(pixels, Mode.MC, seed) for seed in seeds])


def brute_force(outputs):
    """Reference reduction with scalar arithmetic and 1/nu convention."""
    nu = len(outputs)
    mean = [sum(o[c] for o in outputs) / nu for c in range(3)]
    sigma = [
        math.sqrt(sum((o[c] - mean[c]) ** 2 for o in outputs) / nu)
        for c in range(3)
    ]
    norm = math.sqrt(sum(m * m for m in mean))
    return [m / norm for m in mean], sigma, sigma[0] * sigma[1] * sigma[2]


class TestReduction:
    def test_matches_brute_force_on_dyadic_outputs(self):
        outputs = [
            [0.25, 0.5, 0.75],
            [0.5, 0.25, 1.0],
            [0.75, 0.75, 0.5],
            [0.25, 1.0, 0.25],
        ]
        est = mc_estimate(StubNet(outputs), None, nu=4, base_seed=0)
        want_mean, want_sigma, want_mu = brute_force(outputs)
        np.testing.assert_allclose(est.mean, want_mean, atol=1e-15)
        np.testing.assert_allclose(est.sigma, want_sigma, atol=1e-15)
        assert est.mu == pytest.approx(want_mu, abs=1e-15)
        assert est.passes == 4

    def test_population_convention_two_passes(self):
        """With two passes the spread is |a - b| / 2, not |a - b| / sqrt(2)."""
        est = mc_estimate(StubNet([[0.2, 0.4, 0.6], [0.6, 0.2, 0.6]]), None, nu=2)
        np.testing.assert_allclose(est.sigma, [0.2, 0.1, 0.0], atol=1e-15)

    def test_matches_brute_force_on_random_outputs(self):
        rng = np.random.default_rng(70)
        outputs = rng.uniform(0.1, 1.0, (30, 3))
        est = mc_estimate(StubNet(outputs), None, nu=30)
        want_mean, want_sigma, want_mu = brute_force(list(outputs))
        np.testing.assert_allclose(est.mean, want_mean, atol=1e-12)
        np.testing.assert_allclose(est.sigma, want_sigma, atol=1e-12)
        assert est.mu == pytest.approx(want_mu, abs=1e-12)

    def test_identical_outputs_give_exactly_zero_sigma(self):
        est = mc_estimate(StubNet([[0.3, 0.3, 0.9]]), None, nu=7)
        assert np.all(est.sigma == 0.0)
        assert est.mu == 0.0

    def test_single_pass_sigma_is_zero(self):
        est = mc_estimate(StubNet([[0.1, 0.2, 0.9], [0.5, 0.5, 0.5]]), None, nu=1)
        assert np.all(est.sigma == 0.0)

    def test_mean_is_unit_norm(self):
        rng = np.random.default_rng(71)
        est = mc_estimate(StubNet(rng.uniform(0.1, 1.0, (8, 3))), None, nu=8)
        assert np.linalg.norm(est.mean) == pytest.approx(1.0, abs=1e-12)

    def test_nu_must_be_positive(self):
        with pytest.raises(ValueError):
            mc_estimate(StubNet([[1.0, 1.0, 1.0]]), None, nu=0)

    @pytest.mark.parametrize("nu", [True, False, 2.5, 3.0, "30", None])
    def test_nu_must_be_an_integer(self, nu):
        with pytest.raises(TypeError, match="nu must be an integer"):
            mc_estimate(StubNet([[1.0, 1.0, 1.0]]), None, nu=nu)


class TestRealNetworks:
    def test_zero_dropout_sigma_exactly_zero(self):
        net = build("g-net", seed=72, channels=5, dropout_rate=0.0)
        pixels = np.random.default_rng(73).uniform(0.0, 1.0, (8, 8, 3))
        est = mc_estimate(net, pixels, nu=6, base_seed=1)
        assert np.all(est.sigma == 0.0)
        assert est.mu == 0.0
        np.testing.assert_allclose(est.mean, net.forward(pixels), atol=1e-15)

    def test_reduction_reproducible(self):
        net = build("m-net", seed=74, channels=5, dropout_rate=0.4)
        pixels = np.random.default_rng(75).uniform(0.0, 1.0, (8, 8, 3))
        a = mc_estimate(net, pixels, nu=5, base_seed=2)
        b = mc_estimate(net, pixels, nu=5, base_seed=2)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        assert a.mu == b.mu

    def test_passes_keyed_by_index_not_visit_order(self):
        """Evaluating pass seeds in any order yields the same set."""
        net = build("m-net", seed=76, channels=5, dropout_rate=0.4)
        pixels = np.random.default_rng(77).uniform(0.0, 1.0, (8, 8, 3))
        in_order = [net.forward(pixels, Mode.MC, PassSeed(3, i)) for i in range(5)]
        shuffled = {
            i: net.forward(pixels, Mode.MC, PassSeed(3, i)) for i in (4, 2, 0, 1, 3)
        }
        for i in range(5):
            np.testing.assert_array_equal(in_order[i], shuffled[i])

    def test_dropout_produces_nonzero_spread(self):
        net = build("g-net", seed=78, channels=6, dropout_rate=0.4)
        pixels = np.random.default_rng(79).uniform(0.0, 1.0, (8, 8, 3))
        est = mc_estimate(net, pixels, nu=10, base_seed=4)
        assert est.mu > 0.0
        assert np.all(est.sigma > 0.0)


class PassByPass:
    """Wraps a Network so that every pass is a whole-stack ``forward``."""

    def __init__(self, net):
        self.net = net

    def forward_passes(self, pixels, seeds):
        return np.stack([self.net.forward(pixels, Mode.MC, seed) for seed in seeds])


def custom_stack(*layers):
    for i, layer in enumerate(layers):
        if layer.params:
            layer.init(np.random.default_rng(90 + i))
    return Network(list(layers))


STACKS = {
    "g-net": lambda: build("g-net", seed=91, channels=5, dropout_rate=0.4),
    "m-net": lambda: build("m-net", seed=92, channels=5, dropout_rate=0.4),
    "no-dropout": lambda: custom_stack(
        Conv3x3(3, 4), Relu(), MeanPool(), Affine(4, 3), PositiveHead()
    ),
    "dropout-first": lambda: custom_stack(
        Dropout(0.3), Conv3x3(3, 4), Relu(), MeanPool(), Affine(4, 3), PositiveHead()
    ),
    "two-dropouts": lambda: custom_stack(
        Conv3x3(3, 4), Relu(), Dropout(0.3), MeanPool(), Dropout(0.25), Affine(4, 3),
        PositiveHead(),
    ),
    "rate-0": lambda: build("g-net", seed=93, channels=5, dropout_rate=0.0),
    "rate-0-vector": lambda: custom_stack(
        Conv3x3(3, 4), Relu(), MaxPool(), Dropout(0.0), Affine(4, 3), PositiveHead()
    ),
    "negative-into-mean-pool": lambda: custom_stack(
        Conv3x3(3, 4), Dropout(0.4), MeanPool(), Affine(4, 3), PositiveHead()
    ),
    "negative-into-max-pool": lambda: custom_stack(
        Conv3x3(3, 4), Dropout(0.4), MaxPool(), Affine(4, 3), PositiveHead()
    ),
    "vector-dropout-mid-stack": lambda: custom_stack(
        Conv3x3(3, 4), Relu(), MeanPool(), Affine(4, 6), Relu(), Dropout(0.5),
        Affine(6, 3), PositiveHead(),
    ),
    "spatial-layer-after-dropout": lambda: custom_stack(
        Conv3x3(3, 4), Relu(), Dropout(0.3), Conv3x3(4, 4), Relu(), MeanPool(),
        Affine(4, 3), PositiveHead(),
    ),
}


def pass_by_pass(net, pixels, seeds):
    return np.stack([net.forward(pixels, Mode.MC, seed) for seed in seeds])


class TestPrefixSharing:
    """``mc_estimate`` runs the layers before the first Dropout once and
    must still equal nu whole-stack forwards, byte for byte."""

    @pytest.mark.parametrize("make", STACKS.values(), ids=STACKS.keys())
    def test_equals_pass_by_pass_forwards(self, make):
        net = make()
        pixels = np.random.default_rng(94).uniform(0.0, 1.0, (8, 7, 3))
        seeds = [PassSeed(6, i) for i in range(30)]
        want = np.stack([net.forward(pixels, Mode.MC, seed) for seed in seeds])
        assert net.forward_passes(pixels, seeds).tobytes() == want.tobytes()
        got = mc_estimate(net, pixels, nu=30, base_seed=6)
        ref = mc_estimate(PassByPass(net), pixels, nu=30, base_seed=6)
        assert got.mean.tobytes() == ref.mean.tobytes()
        assert got.sigma.tobytes() == ref.sigma.tobytes()
        assert got.mu == ref.mu
        assert got.passes == ref.passes

    @pytest.mark.parametrize("make", STACKS.values(), ids=STACKS.keys())
    def test_equals_pass_by_pass_forwards_at_64x64(self, make):
        net = make()
        pixels = np.random.default_rng(100).uniform(-0.5, 1.5, (64, 64, 3))
        seeds = [PassSeed(7, i) for i in range(30)]
        want = pass_by_pass(net, pixels, seeds)
        assert net.forward_passes(pixels, seeds).tobytes() == want.tobytes()

    def test_pool_does_not_stack_the_spatial_map(self):
        """g-net's (64, 64, C) map is pooled per channel choice, never
        copied once per pass."""
        net = build("g-net", seed=101, channels=12, dropout_rate=0.3)
        pixels = np.random.default_rng(102).uniform(0.0, 1.0, (64, 64, 3))
        seeds = [PassSeed(8, i) for i in range(30)]
        stacked_bytes = 30 * 64 * 64 * 12 * 8
        tracemalloc.start()
        try:
            net.forward_passes(pixels, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stacked_bytes / 4

    def test_mean_pool_runs_at_most_twice_per_estimate(self, monkeypatch):
        calls = []
        original = MeanPool.forward

        def counted(self, x, **kwargs):
            calls.append(x.shape)
            return original(self, x, **kwargs)

        monkeypatch.setattr(MeanPool, "forward", counted)
        net = build("g-net", seed=103, channels=5, dropout_rate=0.3)
        mc_estimate(net, np.random.default_rng(104).uniform(0.0, 1.0, (8, 8, 3)), nu=30)
        assert 1 <= len(calls) <= 2
        assert all(shape == (8, 8, 5) for shape in calls)

    @pytest.mark.parametrize("arch,layer", [("g-net", 2), ("m-net", 3)])
    def test_overflowing_kept_channel_names_the_dropout(self, arch, layer):
        """A finite channel that the kept scale 1/(1-rate) overflows is
        caught right after the Dropout, with the same warnings as the
        whole-stack forwards give."""
        net = build(arch, seed=105, channels=4, dropout_rate=0.3)
        net.layers[0].params["b"][1] = 1.5e308
        pixels = np.random.default_rng(106).uniform(0.0, 1.0, (6, 6, 3))
        match = rf"after layer {layer} \(dropout\)"
        with pytest.warns(RuntimeWarning, match="overflow") as want:
            with pytest.raises(NumericError, match=match):
                pass_by_pass(net, pixels, [PassSeed(0, i) for i in range(30)])
        with pytest.warns(RuntimeWarning, match="overflow") as got:
            with pytest.raises(NumericError, match=match):
                mc_estimate(net, pixels, nu=30)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]

    def test_no_seeds_is_rejected(self):
        with pytest.raises(ValueError, match="at least one PassSeed"):
            build("g-net", seed=95, channels=4).forward_passes(np.ones((4, 4, 3)), [])

    @pytest.mark.parametrize("arch", ["g-net", "m-net"])
    def test_conv_runs_once_per_estimate(self, arch, monkeypatch):
        calls = []
        original = Conv3x3.forward

        def counted(self, x, **kwargs):
            calls.append(x.shape)
            return original(self, x, **kwargs)

        monkeypatch.setattr(Conv3x3, "forward", counted)
        net = build(arch, seed=96, channels=5, dropout_rate=0.3)
        mc_estimate(net, np.random.default_rng(97).uniform(0.0, 1.0, (8, 8, 3)), nu=30)
        assert calls == [(8, 8, 3)]

    @pytest.mark.parametrize("arch", ["g-net", "m-net"])
    def test_clamped_infinite_conv_channel_names_the_conv(self, arch):
        """ReLU maps a -inf channel to 0, so every later activation is
        finite; only the check right after the conv can see it."""
        net = build(arch, seed=98, channels=4, dropout_rate=0.3)
        net.layers[0].params["b"][1] = -np.inf
        pixels = np.random.default_rng(99).uniform(0.0, 1.0, (6, 6, 3))
        with pytest.raises(NumericError, match=r"after layer 0 \(conv3x3\)"):
            net.forward(pixels)
        with pytest.raises(NumericError, match=r"after layer 0 \(conv3x3\)"):
            mc_estimate(net, pixels, nu=30)


class TestHelpers:
    def test_member_seeds_are_distinct_and_stable(self):
        seeds = [derive_member_seed(9, k) for k in range(6)]
        assert len(set(seeds)) == 6
        assert seeds == [derive_member_seed(9, k) for k in range(6)]

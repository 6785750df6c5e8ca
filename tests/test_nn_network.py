"""Network container: forward modes, error handling, full backprop."""

import numpy as np
import pytest
from gradcheck import check_network

from mcde.nn import Mode, Network, NumericError, PassSeed, build, cosine_loss
from mcde.nn.archs import build_g_net, build_m_net


def random_pixels(rng, h=6, w=5):
    return rng.uniform(0.0, 1.0, (h, w, 3))


def unit(rng):
    v = rng.uniform(0.1, 1.0, 3)
    return v / np.linalg.norm(v)


class TestForward:
    def test_output_is_positive_unit_vector(self):
        rng = np.random.default_rng(60)
        for arch in ("g-net", "m-net"):
            net = build(arch, seed=1, channels=5)
            out = net.forward(random_pixels(rng))
            assert out.shape == (3,)
            assert np.all(out > 0.0)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_mode_ignores_dropout_rate(self):
        rng = np.random.default_rng(61)
        pixels = random_pixels(rng)
        with_drop = build("g-net", seed=3, channels=5, dropout_rate=0.45)
        without = build("g-net", seed=3, channels=5, dropout_rate=0.0)
        np.testing.assert_array_equal(
            with_drop.forward(pixels), without.forward(pixels)
        )

    def test_mc_passes_reproducible_and_distinct(self):
        rng = np.random.default_rng(62)
        pixels = random_pixels(rng)
        net = build("g-net", seed=4, channels=6, dropout_rate=0.4)
        a = net.forward(pixels, Mode.MC, PassSeed(8, 0))
        b = net.forward(pixels, Mode.MC, PassSeed(8, 0))
        c = net.forward(pixels, Mode.MC, PassSeed(8, 1))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stochastic_modes_require_seed(self):
        net = build("g-net", seed=5, channels=4)
        pixels = np.ones((4, 4, 3))
        with pytest.raises(ValueError):
            net.forward(pixels, Mode.MC)

    def test_nonfinite_activation_names_the_layer(self):
        net = build("g-net", seed=6, channels=4)
        net.layers[4].params["W"][:] = np.inf
        with pytest.raises(NumericError, match=r"layer 4 \(affine\)"):
            net.forward(np.ones((4, 4, 3)))

    def test_architectures_differ(self):
        rng = np.random.default_rng(63)
        pixels = random_pixels(rng)
        g = build_g_net(seed=7, channels=5)
        m = build_m_net(seed=7, channels=5)
        assert g.arch == "g-net"
        assert m.arch == "m-net"
        assert not np.array_equal(g.forward(pixels), m.forward(pixels))


class TestCosineLoss:
    def test_zero_for_identical_unit_vectors(self):
        rng = np.random.default_rng(64)
        v = unit(rng)
        assert cosine_loss(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_positive_and_increasing_with_angle(self):
        a = np.array([1.0, 0.0, 0.0])
        near = np.array([0.9998, 0.02, 0.0])
        near /= np.linalg.norm(near)
        far = np.array([0.6, 0.8, 0.0])
        assert 0.0 < cosine_loss(near, a) < cosine_loss(far, a)


class TestBackward:
    def test_loss_matches_train_mode_forward(self):
        rng = np.random.default_rng(65)
        net = build("m-net", seed=8, channels=5, dropout_rate=0.3)
        pixels, gt = random_pixels(rng), unit(rng)
        seed = PassSeed(21, 4)
        loss, _ = net.backward(pixels, gt, seed)
        pred = net.forward(pixels, Mode.MC, seed)
        assert loss == pytest.approx(cosine_loss(pred, gt), abs=1e-15)

    def test_grads_parallel_to_layers(self):
        rng = np.random.default_rng(66)
        net = build("g-net", seed=9, channels=4)
        _, grads = net.backward(random_pixels(rng), unit(rng), PassSeed(1))
        assert len(grads) == len(net.layers)
        for layer, layer_grads in zip(net.layers, grads):
            assert set(layer_grads) == set(layer.params)
            for name, grad in layer_grads.items():
                assert grad.shape == layer.params[name].shape

    def test_nonfinite_gradient_is_flagged(self):
        """The guard fires on a bad parameter gradient even when every
        activation is finite.  Real layers only reach that state
        through degenerate weights, so a scripted layer stands in."""

        class PoisonGrad:
            kind = "poison"

            def __init__(self):
                self.params = {"W": np.zeros(1)}

            def forward(self, x, rng=None):
                return x, None

            def backward(self, dy, cache):
                return dy, {"W": np.array([np.inf])}

        net = build("g-net", seed=10, channels=4, dropout_rate=0.0)
        net.layers.insert(0, PoisonGrad())
        pixels = np.random.default_rng(68).uniform(0.0, 1.0, (4, 4, 3))
        with pytest.raises(NumericError, match=r"'W' of layer 0"):
            net.backward(pixels, np.ones(3) / np.sqrt(3), PassSeed(0))

    @pytest.mark.parametrize("arch", ["g-net", "m-net"])
    def test_full_network_gradcheck_with_dropout(self, arch):
        """Whole-stack analytic gradients against central differences.

        Runs with dropout active under a pass seed; masks are a pure
        function of the pass seed, so the finite-difference evaluations
        replay identical masks.
        """
        rng = np.random.default_rng(67)
        net = build(arch, seed=11, channels=3, dropout_rate=0.35)
        check_network(net, random_pixels(rng, 6, 5), unit(rng), PassSeed(33, 2))

    def test_empty_network_passes_input_through(self):
        net = Network([])
        out = net.forward(np.ones(3))
        np.testing.assert_array_equal(out, np.ones(3))


class TestBuild:
    def test_unknown_arch(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            build("q-net")

    def test_same_seed_same_weights(self):
        a = build("g-net", seed=12, channels=6)
        b = build("g-net", seed=12, channels=6)
        for la, lb in zip(a.layers, b.layers):
            for name in la.params:
                np.testing.assert_array_equal(la.params[name], lb.params[name])

    def test_different_seed_different_weights(self):
        a = build("g-net", seed=12, channels=6)
        b = build("g-net", seed=13, channels=6)
        assert not np.array_equal(a.layers[0].params["W"], b.layers[0].params["W"])

"""Network container: forward modes, error handling, full backprop."""

import re

import numpy as np
import pytest
from gradcheck import check_network

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
    cosine_loss,
)
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

    @pytest.mark.parametrize("shape", [(8, 8, 4), (8, 8), (0, 0, 3), (8, 0, 3), (2, 8, 8, 3)])
    def test_pixels_must_be_a_nonempty_image(self, shape):
        net = build("g-net", seed=7, channels=4)
        pixels = np.ones(shape)
        match = re.escape(f"expected non-empty (H, W, 3) pixels, got shape {shape}")
        with pytest.raises(ValueError, match=match):
            net.forward(pixels)
        with pytest.raises(ValueError, match=match):
            net.forward_passes(pixels, [PassSeed(0, 0)])
        with pytest.raises(ValueError, match=match):
            net.backward(pixels, unit(np.random.default_rng(8)), PassSeed(0, 0))

    def test_pixel_channels_come_from_a_layer_zero_with_c_in(self):
        net = Network([Relu(), MeanPool(), Affine(4, 3), PositiveHead()])
        net.layers[2].init(np.random.default_rng(9))
        assert net.forward(np.ones((3, 3, 4))).shape == (3,)
        with pytest.raises(ValueError, match=r"\(H, W, C\) pixels, got shape \(3, 4\)"):
            net.forward(np.ones((3, 4)))

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

            def backward(self, dy, cache, need_dx=True):
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


def affine_first_net(seed):
    """A stack whose layer 0 is not a conv, with a conv further in."""
    rng = np.random.default_rng(seed)
    layers = [
        Affine(3, 5),
        Relu(),
        Conv3x3(5, 4),
        Relu(),
        Dropout(0.3),
        MeanPool(),
        Affine(4, 3),
        PositiveHead(),
    ]
    for layer in layers:
        if layer.params:
            layer.init(rng)
    return Network(layers)


def reference_backward(net, pixels, gt, seed):
    """Network.backward as a plain loop that asks every layer, layer 0
    included, for its input gradient; returns (loss, grads, layer 0's dx)."""
    pred, caches = net._run(np.asarray(pixels, dtype=np.float64), seed)
    gt = np.asarray(gt, dtype=np.float64)
    grad = -gt
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        grad, grads[i] = net.layers[i].backward(grad, caches[i])
    return cosine_loss(pred, gt), grads, grad


class TestInputGradientSkip:
    """Network.backward does not ask layer 0 for the gradient with
    respect to the pixels, and nothing else moves."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build("g-net", seed=12, channels=4, dropout_rate=0.35),
            lambda: build("m-net", seed=13, channels=4, dropout_rate=0.35),
            lambda: affine_first_net(14),
        ],
        ids=["g-net", "m-net", "affine-first"],
    )
    def test_loss_and_gradients_match_the_full_backward_bytewise(self, make):
        net = make()
        rng = np.random.default_rng(69)
        for pass_index in range(3):
            pixels, gt = random_pixels(rng), unit(rng)
            seed = PassSeed(34, pass_index)
            loss, grads = net.backward(pixels, gt, seed)
            ref_loss, ref_grads, ref_dx = reference_backward(net, pixels, gt, seed)
            assert ref_dx.shape == pixels.shape  # the reference did compute it
            assert loss == ref_loss
            assert len(grads) == len(ref_grads)
            for layer_grads, ref_layer_grads in zip(grads, ref_grads):
                assert set(layer_grads) == set(ref_layer_grads)
                for name, grad in layer_grads.items():
                    ref = ref_layer_grads[name]
                    assert grad.dtype == ref.dtype and grad.shape == ref.shape
                    assert grad.tobytes() == ref.tobytes()

    def test_layer_zero_input_gradient_is_not_computed(self, monkeypatch):
        """Of two convs, only the one past layer 0 computes its dx."""
        rng = np.random.default_rng(70)
        layers = [
            Conv3x3(3, 4),
            Relu(),
            Conv3x3(4, 4),
            Relu(),
            Dropout(0.3),
            MeanPool(),
            Affine(4, 3),
            PositiveHead(),
        ]
        for layer in layers:
            if layer.params:
                layer.init(rng)
        net = Network(layers)
        computed = []
        original = Conv3x3.backward

        def counting(self, dy, cache, need_dx=True):
            dx, grads = original(self, dy, cache, need_dx)
            computed.append((net.layers.index(self), dx is not None))
            return dx, grads

        monkeypatch.setattr(Conv3x3, "backward", counting)
        net.backward(random_pixels(rng), unit(rng), PassSeed(35))
        assert computed == [(2, True), (0, False)]

    def test_layers_skip_their_input_gradient_on_request(self):
        rng = np.random.default_rng(71)
        fmap = rng.normal(size=(4, 5, 3))
        vec = rng.normal(size=3)
        conv, affine = Conv3x3(3, 3), Affine(3, 3)
        conv.init(rng)
        affine.init(rng)
        cases = [
            (conv, fmap, None),
            (affine, vec, None),
            (Relu(), fmap, None),
            (MeanPool(), fmap, None),
            (MaxPool(), fmap, None),
            (Dropout(0.4), fmap, np.random.default_rng(72)),
            (PositiveHead(), vec, None),
        ]
        for layer, x, mask_rng in cases:
            y, cache = layer.forward(x, rng=mask_rng)
            dy = rng.normal(size=y.shape)
            dx, grads = layer.backward(dy, cache, need_dx=False)
            full_dx, full_grads = layer.backward(dy, cache)
            assert dx is None and full_dx.shape == x.shape, layer.kind
            for name, grad in grads.items():
                assert grad.tobytes() == full_grads[name].tobytes(), layer.kind


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

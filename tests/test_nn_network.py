"""Network container: forward modes, error handling, full backprop."""

import hashlib
import re
import warnings

import numpy as np
import pytest
from gradcheck import check_network, float64_copy

from mcde.nn import (
    Affine,
    Conv3x3,
    Dropout,
    MeanPool,
    Mode,
    Network,
    NumericError,
    PassSeed,
    PositiveHead,
    Relu,
    TrainConfig,
    build,
    cosine_loss,
    train,
)
from mcde.datagen import GenConfig, gen_dataset
from mcde.nn.archs import MAX_CHANNELS
from mcde.mc import mc_estimate
from mcde.seeding import derive_seed


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
            net.forward_passes(pixels, PassSeed(0, 0), 1)
        with pytest.raises(ValueError, match=match):
            net.backward(pixels[None], unit(np.random.default_rng(8))[None], PassSeed(0, 0))

    def test_pixel_channels_come_from_the_first_layer_with_c_in(self):
        net = Network([Relu(), MeanPool(), Affine(4, 3), PositiveHead()])
        net.layers[2].init(np.random.default_rng(9))
        assert net.forward(np.ones((3, 3, 4))).shape == (3,)
        with pytest.raises(ValueError, match=r"\(H, W, 4\) pixels, got shape \(3, 3, 3\)"):
            net.forward(np.ones((3, 3, 3)))
        net = Network([Relu(), MeanPool(), PositiveHead()])
        assert net.forward(np.ones((3, 3, 5))).shape == (5,)
        with pytest.raises(ValueError, match=r"\(H, W, C\) pixels, got shape \(3, 4\)"):
            net.forward(np.ones((3, 4)))

    @pytest.mark.parametrize("shape", [(8, 8, 1), (8, 8, 4)])
    def test_dropout_first_takes_pixel_channels_from_the_conv(self, shape):
        net = Network(
            [Dropout(0.3), Conv3x3(3, 4), Relu(), MeanPool(), Affine(4, 3), PositiveHead()]
        )
        match = re.escape(f"expected non-empty (H, W, 3) pixels, got shape {shape}")
        with pytest.raises(ValueError, match=match):
            net.forward(np.ones(shape), Mode.MC, PassSeed(0, 0))
        with pytest.raises(ValueError, match=match):
            net.forward_passes(np.ones(shape), PassSeed(0, 0), 1)

    def test_architectures_differ(self):
        rng = np.random.default_rng(63)
        pixels = random_pixels(rng)
        g = build("g-net", seed=7, channels=5)
        m = build("m-net", seed=7, channels=5)
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
        (loss,), _ = net.backward(pixels[None], gt[None], seed)
        pred = net.forward(pixels, Mode.MC, seed)
        assert loss == pytest.approx(cosine_loss(pred, gt), abs=1e-15)

    def test_backward_needs_images_and_one_label_each(self):
        net = build("m-net", seed=8, channels=4)
        rng = np.random.default_rng(64)
        pixels, gts = rng.uniform(0.0, 1.0, (3, 6, 5, 3)), np.stack([unit(rng)] * 3)
        with pytest.raises(ValueError, match="backward needs at least one image"):
            net.backward(pixels[:0], gts[:0], PassSeed(0))
        for labels in (gts[:2], np.concatenate([gts, gts[:1]])):
            with pytest.raises(ValueError, match=f"one label per image: got {len(labels)} for 3"):
                net.backward(pixels, labels, PassSeed(0))

    def test_batch_pass_range_is_checked_before_the_first_block(self, monkeypatch):
        """A 64x64 batch of 3 runs in three blocks; passes past 2**64 - 1
        fail before the first one, in ``_run``'s wording."""
        calls = []
        monkeypatch.setattr(Network, "_run", lambda *args: calls.append(args))
        rng = np.random.default_rng(63)
        pixels, gts = rng.uniform(0.0, 1.0, (3, 64, 64, 3)), np.stack([unit(rng)] * 3)
        message = "passes 18446744073709551614 to 18446744073709551616 must lie in [0, 2**64)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build("g-net", seed=8, channels=4).backward(pixels, gts, PassSeed(0, 2**64 - 2))
        assert calls == []

    @pytest.mark.parametrize("size", [8, 64])
    def test_image_k_runs_under_pass_first_plus_k(self, size):
        """In one block (8x8) or one block per image (64x64), image k's
        loss and gradients are those of a one-image backward under pass
        ``pass_index + k``."""
        net = build("g-net", seed=10, channels=4, dropout_rate=0.4)
        rng = np.random.default_rng(67)
        pixels = rng.uniform(0.0, 1.0, (3, size, size, 3))
        gts = np.stack([unit(rng) for _ in range(3)])
        base, first = 2**64 - 1, 2**64 - 3
        losses, grads = net.backward(pixels, gts, PassSeed(base, first))
        one = [
            net.backward(pixels[k : k + 1], gts[k : k + 1], PassSeed(base, first + k))
            for k in range(3)
        ]
        assert losses.tobytes() == np.concatenate([loss for loss, _ in one]).tobytes()
        for i, layer_grads in enumerate(grads):
            for name, grad in layer_grads.items():
                np.testing.assert_allclose(grad, sum(g[i][name] for _, g in one), rtol=1e-12)

    @pytest.mark.parametrize(
        "size,blocks", [(8, [5]), (32, [5]), (64, [1] * 5), (48, [2, 2, 1])]
    )
    def test_backward_runs_row_blocks_that_fit_the_budget(self, size, blocks, monkeypatch):
        """Whole batches of small images, 64x64 images one by one.  The
        pixels are counted in float32: a 32x32 image is 12 KiB, so a
        batch of 5 runs whole, and two 48x48 images of 27 KiB fit."""
        rows = []
        original = Network._run

        def recording(self, x, *keys):
            rows.append(len(x))
            return original(self, x, *keys)

        monkeypatch.setattr(Network, "_run", recording)
        rng = np.random.default_rng(65)
        build("g-net", seed=8, channels=4).backward(
            rng.uniform(0.0, 1.0, (5, size, size, 3)),
            np.stack([unit(rng)] * 5),
            PassSeed(0, 0),
        )
        assert rows == blocks

    @pytest.mark.parametrize("size,blocks", [(8, [5]), (64, [1] * 5)])
    def test_backward_copies_only_its_blocks(self, size, blocks, monkeypatch):
        """The block size comes from the image shape: each block is
        cast to the parameters' dtype and checked once, and nothing else is."""
        copied = []
        original = Network._images

        def recording(self, pixels):
            copied.append(len(pixels))
            return original(self, pixels)

        monkeypatch.setattr(Network, "_images", recording)
        rng = np.random.default_rng(65)
        build("g-net", seed=8, channels=4).backward(
            list(rng.uniform(0.0, 1.0, (5, size, size, 3)).astype(np.float32)),
            np.stack([unit(rng)] * 5),
            PassSeed(0, 0),
        )
        assert copied == blocks

    def test_grads_parallel_to_layers(self):
        rng = np.random.default_rng(66)
        net = build("g-net", seed=9, channels=4)
        _, grads = net.backward(random_pixels(rng)[None], unit(rng)[None], PassSeed(1))
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

            def forward(self, x):
                return x, None

            def backward(self, dy, cache, need_dx=True):
                return dy, {"W": np.array([np.inf])}

        net = build("g-net", seed=10, channels=4, dropout_rate=0.0)
        net.layers.insert(0, PoisonGrad())
        pixels = np.random.default_rng(68).uniform(0.0, 1.0, (4, 4, 3))
        with pytest.raises(NumericError, match=r"'W' of layer 0"):
            net.backward(pixels[None], np.ones((1, 3)) / np.sqrt(3), PassSeed(0))

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
    """Network.backward as a plain loop over all rows at once that asks
    every layer, layer 0 included, for its input gradient and sums the
    per-row gradients; returns (losses, grads, layer 0's dx)."""
    pred, caches = net._run(net._images(pixels), [seed.base_seed], seed.pass_index, len(pixels))
    gt = np.asarray(gt, dtype=np.float64)
    grad = -gt
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        grad, per_row = net.layers[i].backward(grad, caches[i])
        grads[i] = {name: rows.sum(axis=0) for name, rows in per_row.items()}
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
            loss, grads = net.backward(pixels[None], gt[None], seed)
            ref_loss, ref_grads, ref_dx = reference_backward(net, pixels[None], gt[None], seed)
            assert ref_dx.shape == pixels[None].shape  # the reference did compute it
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
        net.backward(random_pixels(rng)[None], unit(rng)[None], PassSeed(35))
        assert computed == [(2, True), (0, False)]

    def test_layers_skip_their_input_gradient_on_request(self):
        rng = np.random.default_rng(71)
        fmap = rng.normal(size=(1, 4, 5, 3))
        vec = rng.normal(size=(1, 3))
        conv, affine = Conv3x3(3, 3), Affine(3, 3)
        conv.init(rng)
        affine.init(rng)
        for layer, x in [(conv, fmap), (affine, vec)]:
            y, cache = layer.forward(x)
            dy = rng.normal(size=y.shape)
            dx, grads = layer.backward(dy, cache, need_dx=False)
            full_dx, full_grads = layer.backward(dy, cache)
            assert dx is None and full_dx.shape == x.shape, layer.kind
            for name, grad in grads.items():
                assert grad.tobytes() == full_grads[name].tobytes(), layer.kind


def test_backward_ends_at_the_lowest_layer_with_parameters(monkeypatch):
    """A parameter-free layer below the lowest one with parameters is
    never called, and that layer is asked for no input gradient; the
    gradients are those of the stack without it, byte for byte."""

    def stack(*head):
        rng = np.random.default_rng(72)
        layers = [*head, Conv3x3(3, 4), Relu(), MeanPool(), Affine(4, 3), PositiveHead()]
        for layer in layers:
            if layer.params:
                layer.init(rng)
        return Network(layers)

    net, bare = stack(Relu()), stack()
    called = []
    relu_backward, conv_backward = Relu.backward, Conv3x3.backward

    def recording_relu(self, *args, **kwargs):
        called.append((self, None))
        return relu_backward(self, *args, **kwargs)

    def recording_conv(self, dy, cache, need_dx=True):
        called.append((self, need_dx))
        return conv_backward(self, dy, cache, need_dx)

    monkeypatch.setattr(Relu, "backward", recording_relu)
    monkeypatch.setattr(Conv3x3, "backward", recording_conv)
    rng = np.random.default_rng(73)
    pixels, gts = rng.normal(size=(3, 6, 5, 3)), [unit(rng) for _ in range(3)]
    loss, grads = net.backward(pixels, gts, PassSeed(36))
    assert called == [(net.layers[2], None), (net.layers[1], False)]
    bare_loss, bare_grads = bare.backward(np.maximum(pixels, 0.0), gts, PassSeed(36))
    assert loss.tobytes() == bare_loss.tobytes()
    assert grads[0] == {} and len(grads) == len(bare_grads) + 1
    for layer_grads, bare_layer_grads in zip(grads[1:], bare_grads):
        assert set(layer_grads) == set(bare_layer_grads)
        for name, grad in layer_grads.items():
            assert grad.tobytes() == bare_layer_grads[name].tobytes()


def handed_masks(monkeypatch, net, run):
    """The keep mask ``net`` hands each of its Dropout layers while
    ``run()`` runs: {layer index: (rows, size) array}, one row per
    image or pass, in the order they were handed."""
    got = {}
    original = Dropout.forward

    def recording(self, x, keep=None):
        got.setdefault(net.layers.index(self), []).append(keep)
        return original(self, x, keep)

    monkeypatch.setattr(Dropout, "forward", recording)
    run()
    return {
        i: np.concatenate([keep.reshape(-1, keep.shape[-1]) for keep in rows])
        for i, rows in got.items()
    }


def assert_binomial(hits, p, what):
    """The share of True in ``hits`` lies within 5 binomial sigma of ``p``."""
    bound = 5.0 * np.sqrt(p * (1.0 - p) / hits.size)
    share = hits.mean()
    assert abs(share - p) <= bound, f"{what}: {share:.4f} vs {p:.4f} +- {bound:.4f}"


class TestMasks:
    """``Network`` draws every dropout mask.  Past the shape rule, these
    checks hold for any mask generator that draws independent Bernoullis."""

    def test_spatial_mask_is_per_channel(self):
        """On (H, W, C) maps each channel is kept or dropped as a whole.
        A network without parameters computes in float32."""
        x = (np.abs(np.random.default_rng(43).normal(size=(6, 6, 32))) + 0.1).astype(np.float32)
        net = Network([Dropout(0.5)])
        one = net.forward(x, Mode.MC, PassSeed(5))
        stacked = net.forward_passes(x, PassSeed(5), 4)
        for ratio in (one / x, stacked / x):
            pixels = ratio.reshape(*ratio.shape[:-3], -1, 32)
            assert np.all(pixels == pixels[..., :1, :]), "channel must be uniformly scaled"
            assert set(np.unique(ratio)) == {0.0, 2.0}

    def test_vector_mask_is_per_element(self):
        net = Network([MeanPool(), Dropout(0.25)])
        y = net.forward(np.ones((2, 2, 4096)), Mode.MC, PassSeed(6))
        assert y.shape == (4096,)
        assert set(np.unique(y)) == {0.0, np.float32(1.0 / 0.75)}
        assert_binomial(y > 0.0, 0.75, "kept share")

    def test_mask_reproducible_from_seed(self):
        x = np.random.default_rng(44).normal(size=(4, 4, 16))
        net = Network([Dropout(0.5)])
        y1 = net.forward(x, Mode.MC, PassSeed(9))
        np.testing.assert_array_equal(y1, net.forward(x, Mode.MC, PassSeed(9)))
        np.testing.assert_array_equal(y1, net.forward_passes(x, PassSeed(9), 1)[0])
        assert not np.array_equal(y1, net.forward(x, Mode.MC, PassSeed(10)))

    @pytest.mark.parametrize("rate", [0.3, 0.45])
    def test_keep_fraction_is_one_minus_rate(self, rate):
        """12 000 draws, all passes of one stacked call."""
        net = Network([Dropout(rate)])
        out = net.forward_passes(np.ones((1, 1, 100)), PassSeed(12), 120)
        assert out.shape == (120, 1, 1, 100)
        assert_binomial(out > 0.0, 1.0 - rate, f"kept share at rate {rate}")

    def test_masks_differ_across_layers_and_passes(self, monkeypatch):
        """Two Dropout layers, and consecutive passes, agree on each
        entry only as often as independent draws would."""
        rng = np.random.default_rng(73)
        layers = [
            Conv3x3(3, 4), Relu(), Dropout(0.3), MeanPool(), Dropout(0.25), Affine(4, 3),
            PositiveHead(),
        ]
        for layer in layers:
            if layer.params:
                layer.init(rng)
        net = Network(layers)
        pixels = random_pixels(rng)
        masks = handed_masks(
            monkeypatch,
            net,
            lambda: [net.forward(pixels, Mode.MC, PassSeed(13, k)) for k in range(1000)],
        )
        assert sorted(masks) == [2, 4] and masks[2].shape == masks[4].shape == (1000, 4)
        assert_binomial(masks[2] == masks[4], 0.7 * 0.75 + 0.3 * 0.25, "layers 2 and 4")
        for i, keep in ((2, 0.7), (4, 0.75)):
            agree = keep**2 + (1.0 - keep) ** 2
            assert_binomial(masks[i][1:] == masks[i][:-1], agree, f"passes of layer {i}")

    def test_masks_differ_across_training_steps(self, monkeypatch):
        net = build("g-net", seed=14, channels=64, dropout_rate=0.3)
        scenes = gen_dataset(GenConfig(n_scenes=8, width=8, height=8, base_seed=15)).scenes
        config = TrainConfig(epochs=2, learning_rate=0.01, batch_size=4, base_seed=16)
        masks = handed_masks(monkeypatch, net, lambda: train(net, scenes, config))
        assert sorted(masks) == [2] and masks[2].shape == (16, 64)
        assert_binomial(masks[2][1:] == masks[2][:-1], 0.7**2 + 0.3**2, "consecutive steps")

    def test_mc_estimate_draws_without_sha256_or_generators(self, monkeypatch):
        """The ν=30 masks of an estimate come from the counter hash alone:
        no per-pass sha256 and no per-pass numpy Generator."""
        net = build("g-net", seed=17, channels=8, dropout_rate=0.3)
        pixels = random_pixels(np.random.default_rng(74), 8, 8)
        calls = {"sha256": 0, "default_rng": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(hashlib, "sha256")
        counting(np.random, "default_rng")
        est = mc_estimate(net, pixels, nu=30, base_seed=18)
        assert est.mu > 0.0
        assert calls == {"sha256": 0, "default_rng": 0}

    @pytest.mark.parametrize(
        "base,first,count",
        [(19, 0, 24), (19, 7, 5), (2**64 - 1, 0, 30), (2**64 - 1, 2**64 - 8, 8),
         (0, 2**64 - 1, 1), (2**63, 2**63, 3)],
    )
    @pytest.mark.parametrize("arch", ["g-net", "m-net"])
    def test_row_k_is_pass_first_plus_k(self, arch, base, first, count):
        """A run of passes is its passes one by one, bit for bit, up to
        the top of the uint64 range."""
        net = build(arch, seed=20, channels=6, dropout_rate=0.3)
        pixels = random_pixels(np.random.default_rng(75), 6, 5)
        rows = net.forward_passes(pixels, PassSeed(base, first), count)
        assert rows.shape == (count, 3)
        for k in range(count):
            one = net.forward(pixels, Mode.MC, PassSeed(base, first + k))
            assert rows[k].tobytes() == one.tobytes()

    def test_bad_pass_runs_are_rejected(self):
        net = build("g-net", seed=21, channels=4, dropout_rate=0.3)
        rng = np.random.default_rng(76)
        pixels, gts = rng.uniform(0.0, 1.0, (3, 6, 6, 3)), np.stack([unit(rng)] * 3)
        past = re.escape(f"passes {2**64 - 2} to {2**64} must lie in [0, 2**64)")
        with pytest.raises(ValueError, match=past):
            net.forward_passes(pixels[0], PassSeed(5, 2**64 - 2), 3)
        with pytest.raises(ValueError, match=past):
            net.backward(pixels, gts, PassSeed(5, 2**64 - 2))
        with pytest.raises(ValueError, match="count must be at least 1, got 0"):
            net.forward_passes(pixels[0], PassSeed(5), 0)

    def test_extreme_keys_draw_without_warnings(self):
        """Keys at the top of the uint64 range wrap silently: no numpy
        overflow warning (which pytest turns into an error here)."""
        x = np.ones((4, 4, 64))
        net = Network([Dropout(0.3)])
        seeds = [PassSeed(2**64 - 1, 2**63), PassSeed(2**64 - 1, 2**64 - 1), PassSeed(0, 2**63)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.concatenate([net.forward_passes(x, seed, 1) for seed in seeds])
            for k, seed in enumerate(seeds):
                assert net.forward(x, Mode.MC, seed).tobytes() == rows[k].tobytes()
        assert 0 < np.count_nonzero(rows[:, 0, 0]) < rows[:, 0, 0].size


def float_arrays(obj):
    """The floating arrays and scalars in an activation, a cache or a
    gradient dict, however nested."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in float_arrays(item)]
    return [obj] if isinstance(obj, (np.ndarray, np.generic)) and obj.dtype.kind == "f" else []


class TestDtypes:
    """Every network computes in float32 up to the head, and the head
    returns float64 estimates and losses."""

    @pytest.mark.parametrize("arch", ["g-net", "m-net"])
    def test_float32_up_to_the_head(self, arch, monkeypatch):
        net = build(arch, seed=14, channels=5, dropout_rate=0.4)
        seen = []
        for i, layer in enumerate(net.layers):
            def forward(*args, _i=i, _f=layer.forward):
                y, cache = _f(*args)
                seen.append((_i, "forward", y, cache))
                return y, cache

            def backward(*args, _i=i, _b=layer.backward, **kwargs):
                dx, grads = _b(*args, **kwargs)
                seen.append((_i, "backward", dx, grads))
                return dx, grads

            monkeypatch.setattr(layer, "forward", forward)
            monkeypatch.setattr(layer, "backward", backward)
        rng = np.random.default_rng(71)
        pixels = rng.uniform(0.0, 1.0, (3, 8, 8, 3))  # float64 in: the network casts it
        net.backward(pixels, np.stack([unit(rng)] * 3), PassSeed(5))
        passes = net.forward_passes(pixels[0], PassSeed(6), 7)
        one = net.forward(pixels[0], Mode.MC, PassSeed(6))
        plain = net.forward(pixels[0])
        head = len(net.layers) - 1
        assert {(i, step) for i, step, *_ in seen} == {
            (i, step) for i in range(len(net.layers)) for step in ("forward", "backward")
        }
        for i, step, out, extra in seen:
            if i == head:  # float64 inside, and its input gradient goes back as float32
                assert out.dtype == (np.float64 if step == "forward" else np.float32)
                continue
            arrays = float_arrays([out, extra])
            assert arrays
            for a in arrays:
                assert a.dtype == np.float32, f"layer {i} ({net.layers[i].kind}) {step}"
        for out in (passes, one, plain):
            assert out.dtype == np.float64
            np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("arch", ["g-net", "m-net"])
    def test_parameters_are_the_float64_draws_rounded(self, arch):
        """``init`` draws the same float64 uniforms as a float64 network
        would, so the random streams do not depend on the dtype."""
        net = build(arch, seed=15, channels=6)
        for i, layer in enumerate(net.layers):
            if not layer.params:
                continue
            rng = np.random.default_rng(derive_seed("layer-init", 15, i))
            shape = layer.params["W"].shape
            fan = (9 if len(shape) == 4 else 1) * (shape[-2] + shape[-1])
            span = np.sqrt(6.0 / fan)
            want = rng.uniform(-span, span, shape).astype(np.float32)
            assert layer.params["W"].tobytes() == want.tobytes()
            assert layer.params["b"].dtype == np.float32 and not layer.params["b"].any()

    @pytest.mark.parametrize("arch", ["g-net", "m-net"])
    def test_gradients_track_the_float64_copy(self, arch):
        """On the same batch and pass seed, each parameter gradient of the
        float32 network lies within 1e-4 of the largest entry of its
        float64 copy's; the worst measured was 2.8e-6 (g-net, 16x16)."""
        scenes = gen_dataset(GenConfig(n_scenes=8, width=16, height=16, base_seed=3)).scenes
        pixels, gts = [s.pixels for s in scenes], [s.label for s in scenes]
        for seed in range(3):
            net = build(arch, seed=seed)
            losses, grads = net.backward(pixels, gts, PassSeed(7, seed))
            ref_losses, ref_grads = float64_copy(net).backward(pixels, gts, PassSeed(7, seed))
            np.testing.assert_allclose(losses, ref_losses, rtol=0, atol=1e-6)
            for layer_grads, ref_layer_grads in zip(grads, ref_grads):
                for name, grad in layer_grads.items():
                    ref = ref_layer_grads[name]
                    assert grad.dtype == np.float32 and ref.dtype == np.float64
                    assert np.abs(grad - ref).max() <= 1e-4 * np.abs(ref).max()


class TestBuild:
    def test_unknown_arch(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            build("q-net")

    @pytest.mark.parametrize("arch", ["g-net", "m-net"])
    def test_rejects_networks_without_channels(self, arch):
        """Zero channels would return the same estimate for every scene."""
        with pytest.raises(ValueError, match=r"channels must lie in \[1, 1024\], got 0"):
            build(arch, channels=0)

    @pytest.mark.parametrize("arch", ["g-net", "m-net"])
    def test_channels_are_bounded(self, arch):
        """``MAX_CHANNELS`` builds; one more is refused before anything of
        that width is allocated."""
        net = build(arch, channels=MAX_CHANNELS)
        assert net.layers[0].params["W"].shape == (3, 3, 3, MAX_CHANNELS)
        with pytest.raises(ValueError, match=r"^channels must lie in \[1, 1024\], got 1025$"):
            build(arch, channels=MAX_CHANNELS + 1)

    @pytest.mark.parametrize("channels", [2.5, True])
    def test_rejects_non_integer_channels(self, channels):
        with pytest.raises(TypeError, match=f"^channels must be an integer, got {channels!r}$"):
            build("g-net", channels=channels)

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

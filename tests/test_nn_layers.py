"""Layer forward semantics and analytic gradients.

Forward behavior is pinned with small hand-computable cases; every
backward pass is compared against central finite differences through
the shared checker in gradcheck.py.
"""

import numpy as np
import pytest
from gradcheck import check_layer

from mcde.nn import (
    Affine,
    Conv3x3,
    Dropout,
    MaxPool,
    MeanPool,
    PassSeed,
    PositiveHead,
    Relu,
    layers,
)


def spatial(rng, h=5, w=4, c=3):
    return rng.normal(size=(h, w, c))


class TestConv3x3:
    def test_center_tap_identity(self):
        """A kernel with only the center tap set to identity copies the input."""
        rng = np.random.default_rng(30)
        x = spatial(rng, 6, 5, 2)
        layer = Conv3x3(2, 2)
        layer.params["W"][1, 1] = np.eye(2)
        y, _ = layer.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_corner_tap_shifts_with_zero_padding(self):
        """The (0, 0) tap reads the pixel up-left; borders read zero padding."""
        rng = np.random.default_rng(31)
        x = spatial(rng, 4, 4, 1)
        layer = Conv3x3(1, 1)
        layer.params["W"][0, 0, 0, 0] = 1.0
        y, _ = layer.forward(x)
        np.testing.assert_array_equal(y[1:, 1:], x[:-1, :-1])
        assert np.all(y[0, :] == 0.0)
        assert np.all(y[:, 0] == 0.0)

    def test_bias_broadcast(self):
        layer = Conv3x3(1, 3)
        layer.params["b"] = np.array([1.0, 2.0, 3.0])
        y, _ = layer.forward(np.zeros((2, 2, 1)))
        np.testing.assert_array_equal(y, np.broadcast_to([1.0, 2.0, 3.0], (2, 2, 3)))

    def test_init_scale_and_zero_bias(self):
        layer = Conv3x3(3, 8)
        layer.init(np.random.default_rng(32))
        span = np.sqrt(6.0 / (9 * 3 + 9 * 8))
        assert np.abs(layer.params["W"]).max() <= span
        assert np.all(layer.params["b"] == 0.0)

    def test_gradients(self):
        rng = np.random.default_rng(33)
        layer = Conv3x3(3, 4)
        layer.init(rng)
        layer.params["b"] = rng.normal(size=4)
        check_layer(layer, spatial(rng, 5, 4, 3))



def direct_conv(x, weight, bias, dy):
    """A float64 3x3 same-padding convolution of (R, H, W, C) maps, pixel by
    pixel and tap by tap, with its per-row gradients against ``dy``:
    (y, dx, dW, db)."""
    n, h, w, _ = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    y = np.empty((n, h, w, weight.shape[-1]))
    dxp = np.zeros_like(xp)
    d_weight = np.zeros((n, *weight.shape))
    for i in range(h):
        for j in range(w):
            window = xp[:, i : i + 3, j : j + 3]
            y[:, i, j] = np.einsum("rklc,klco->ro", window, weight) + bias
            dxp[:, i : i + 3, j : j + 3] += np.einsum("ro,klco->rklc", dy[:, i, j], weight)
            d_weight += np.einsum("rklc,ro->rklco", window, dy[:, i, j])
    return y, dxp[:, 1:-1, 1:-1], d_weight, dy.sum(axis=(1, 2))


# (rows, h, w, c_in, c_out): the edge shapes, then random ones.
_CONV_SHAPES = [(1, 1, 1, 3, 4), (3, 1, 6, 2, 5), (2, 5, 1, 7, 3), (4, 6, 5, 3, 12)] + [
    tuple(int(v) for v in np.random.default_rng(seed).integers(1, 9, 5)) for seed in range(6)
]


@pytest.mark.parametrize("shape", _CONV_SHAPES, ids=str)
def test_conv_matches_a_float64_direct_convolution(shape):
    """The float32 conv's output and its input, weight and bias gradients
    agree with the direct float64 sums of the same values, within float32
    rounding of sums of up to 9 * c_in (output) or h * w (gradient) terms."""
    n, h, w, c_in, c_out = shape
    rng = np.random.default_rng(sum(shape))
    layer = Conv3x3(c_in, c_out)
    layer.init(rng)
    layer.params["b"] = rng.normal(size=c_out).astype(np.float32)
    x = rng.normal(size=(n, h, w, c_in)).astype(np.float32)
    dy = rng.normal(size=(n, h, w, c_out)).astype(np.float32)
    y, cache = layer.forward(x)
    dx, grads = layer.backward(dy, cache)
    want = direct_conv(*(np.float64(a) for a in (x, layer.params["W"], layer.params["b"], dy)))
    for name, got, ref in zip(("y", "dx", "dW", "db"), (y, dx, grads["W"], grads["b"]), want):
        assert got.dtype == np.float32 and got.shape == ref.shape, name
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * max(1, h * w), err_msg=name)


@pytest.mark.parametrize("window_bytes", [1, 9000])
def test_conv_in_row_blocks_gives_the_one_block_bytes(window_bytes, monkeypatch):
    """Windows formed a block of rows at a time, down to one row, give
    the bytes of one block: each row is its own matrix product."""
    rng = np.random.default_rng(115)
    layer = initialised(Conv3x3(4, 6), 116)
    x = rng.normal(size=(7, 5, 6, 4)).astype(np.float32)
    dy = rng.normal(size=(7, 5, 6, 6)).astype(np.float32)

    def run():
        y, cache = layer.forward(x)
        dx, grads = layer.backward(dy, cache)
        return [y, dx, grads["W"], grads["b"]]

    want = run()
    monkeypatch.setattr(layers, "_WINDOW_BYTES", window_bytes)
    for got, ref in zip(run(), want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("window_bytes", [None, 9000])
def test_conv_backward_reuses_one_block_of_windows_bit_for_bit(window_bytes, monkeypatch):
    """The forward keeps its windows for the backward when they form one
    block, and the parameter gradients are the bytes of windows rebuilt
    from the padded input.  In several blocks, none are kept, and the
    rebuilt blocks give the bytes of the one-block gradients."""
    rng = np.random.default_rng(117)
    layer = initialised(Conv3x3(4, 6), 118)
    x = rng.normal(size=(7, 5, 6, 4)).astype(np.float32)
    dy = rng.normal(size=(7, 5, 6, 6)).astype(np.float32)
    _, (xp, windows) = layer.forward(x)
    assert windows.shape == (7, 5 * 6, 9 * 4)
    cached = layer.backward(dy, (xp, windows), need_dx=False)[1]
    rebuilt = layer.backward(dy, (xp, None), need_dx=False)[1]
    if window_bytes is not None:
        monkeypatch.setattr(layers, "_WINDOW_BYTES", window_bytes)
        _, (xp, windows) = layer.forward(x)
        assert windows is None
        rebuilt = layer.backward(dy, (xp, windows), need_dx=False)[1]
    for name in layer.params:
        assert cached[name].tobytes() == rebuilt[name].tobytes()


class TestAffine:
    def test_matches_manual_matmul(self):
        rng = np.random.default_rng(34)
        layer = Affine(3, 2)
        layer.init(rng)
        layer.params["b"] = rng.normal(size=2)
        x = rng.normal(size=3)
        y, _ = layer.forward(x)
        np.testing.assert_allclose(
            y, x @ layer.params["W"] + layer.params["b"], atol=1e-15
        )

    def test_acts_pointwise_on_spatial_maps(self):
        rng = np.random.default_rng(35)
        layer = Affine(3, 2)
        layer.init(rng)
        x = spatial(rng, 4, 3, 3)
        y, _ = layer.forward(x)
        assert y.shape == (4, 3, 2)
        single, _ = layer.forward(x[1, 2])
        np.testing.assert_allclose(y[1, 2], single, atol=1e-15)

    def test_gradients_vector_and_spatial(self):
        rng = np.random.default_rng(36)
        layer = Affine(3, 4)
        layer.init(rng)
        layer.params["b"] = rng.normal(size=4)
        check_layer(layer, rng.normal(size=3))
        check_layer(layer, spatial(rng, 3, 3, 3))


class TestRelu:
    def test_values(self):
        layer = Relu()
        y, _ = layer.forward(np.array([-2.0, 0.0, 3.5]))
        np.testing.assert_array_equal(y, [0.0, 0.0, 3.5])

    def test_zero_input_gets_zero_gradient(self):
        layer = Relu()
        x = np.array([-1.0, 0.0, 2.0])
        _, cache = layer.forward(x)
        dx, _ = layer.backward(np.ones(3), cache)
        np.testing.assert_array_equal(dx, [0.0, 0.0, 1.0])

    def test_gradients(self):
        rng = np.random.default_rng(37)
        check_layer(Relu(), spatial(rng) + 0.05)


class TestMeanPool:
    def test_values(self):
        x = np.arange(24, dtype=np.float64).reshape(3, 4, 2)
        y, _ = MeanPool().forward(x)
        np.testing.assert_allclose(y, x.reshape(-1, 2).mean(axis=0), atol=1e-15)

    def test_backward_spreads_evenly(self):
        layer = MeanPool()
        x = np.ones((2, 3, 2))
        _, cache = layer.forward(x)
        dx, _ = layer.backward(np.array([6.0, 12.0]), cache)
        np.testing.assert_allclose(dx[..., 0], 1.0, atol=1e-15)
        np.testing.assert_allclose(dx[..., 1], 2.0, atol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(38)
        check_layer(MeanPool(), spatial(rng))


class TestMaxPool:
    def test_values(self):
        rng = np.random.default_rng(39)
        x = spatial(rng, 4, 5, 3)
        y, _ = MaxPool().forward(x)
        np.testing.assert_array_equal(y, x.reshape(-1, 3).max(axis=0))

    def test_tie_routes_gradient_to_first_maximum(self):
        layer = MaxPool()
        x = np.zeros((2, 2, 1))
        x[0, 1, 0] = 5.0
        x[1, 0, 0] = 5.0
        _, cache = layer.forward(x)
        dx, _ = layer.backward(np.array([1.0]), cache)
        assert dx[0, 1, 0] == 1.0
        assert dx[1, 0, 0] == 0.0

    def test_signed_zero_tie_keeps_the_first_maximum_bits(self):
        """A maximum tied between -0.0 and +0.0 comes out with the bits of
        the first (row-major) one; ``max`` returned the other on most such
        maps."""
        rng = np.random.default_rng(41)
        x = -rng.uniform(0.5, 1.0, size=(300, 4, 4, 3)).astype(np.float32)
        for r in range(x.shape[0]):
            for c in range(x.shape[-1]):
                first, second = rng.choice(16, size=2, replace=False)
                sign = rng.choice([-1.0, 1.0])
                x[r, first // 4, first % 4, c] = sign * 0.0
                x[r, second // 4, second % 4, c] = -sign * 0.0
        y, _ = MaxPool().forward(x)
        flat = x.reshape(x.shape[0], -1, x.shape[-1])
        want = np.empty_like(y)
        for r in range(flat.shape[0]):
            for c in range(flat.shape[-1]):
                column = flat[r, :, c]
                want[r, c] = column[list(column).index(column.max())]
        assert y.tobytes() == want.tobytes()

    def test_gradients(self):
        rng = np.random.default_rng(40)
        check_layer(MaxPool(), spatial(rng))


class TestDropout:
    """The layer scales by the mask it is given; ``Network`` draws the
    masks (tests/test_nn_network.py::TestMasks)."""

    def test_rate_zero_is_exact_identity(self):
        rng = np.random.default_rng(41)
        x = spatial(rng)
        layer = Dropout(0.0)
        y, cache = layer.forward(x, np.ones(x.shape[-1], dtype=bool))
        np.testing.assert_array_equal(y, x)
        dx, _ = layer.backward(x, cache)
        np.testing.assert_array_equal(dx, x)

    def test_deterministic_mode_is_exact_identity(self):
        """Without a mask the layer is the identity, with no cache."""
        rng = np.random.default_rng(42)
        x = spatial(rng)
        y, cache = Dropout(0.8).forward(x)
        np.testing.assert_array_equal(y, x)
        assert cache is None

    def test_spatial_mask_is_per_channel(self):
        """A per-channel mask keeps or drops each (H, W, C) channel as a
        whole and scales the kept ones by 1/(1-rate)."""
        rng = np.random.default_rng(43)
        x = np.abs(spatial(rng, 6, 6, 32)) + 0.1
        keep = np.arange(32) % 3 == 0
        y, cache = Dropout(0.5).forward(x, keep)
        for c in range(32):
            np.testing.assert_array_equal(y[..., c], x[..., c] * (2.0 if keep[c] else 0.0))
        dy = rng.normal(size=x.shape)
        dx, _ = Dropout(0.5).backward(dy, cache)
        np.testing.assert_array_equal(dx, dy * np.where(keep, 2.0, 0.0))

    @pytest.mark.parametrize(
        "rate,error",
        [(1.0, ValueError), (1.5, ValueError), (-0.1, ValueError), (float("nan"), ValueError),
         ("x", TypeError), (None, TypeError), (True, TypeError)],
        ids=["1.0", "1.5", "-0.1", "nan", "x", "None", "True"],
    )
    def test_invalid_rates(self, rate, error):
        with pytest.raises(error, match=f"^dropout_rate must .*, got {rate!r}$"):
            Dropout(rate)

    def test_gradients_with_fixed_mask(self):
        rng = np.random.default_rng(45)
        check_layer(Dropout(0.4), spatial(rng), keep=np.array([True, False, True]))
        check_layer(Dropout(0.4), rng.normal(size=12), keep=np.arange(12) % 4 != 1)


class TestPositiveHead:
    def test_output_is_positive_unit_direction(self):
        rng = np.random.default_rng(46)
        layer = PositiveHead()
        for x in rng.normal(scale=5.0, size=(50, 3)):
            y, _ = layer.forward(x)
            assert np.all(y > 0.0)
            assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(47)
        layer = PositiveHead()
        x = rng.normal(size=3)
        y1, _ = layer.forward(x)
        y2, _ = layer.forward(x + 123.0)
        np.testing.assert_allclose(y1, y2, atol=1e-12)

    def test_extreme_inputs_stay_finite_and_positive(self):
        layer = PositiveHead()
        y, _ = layer.forward(np.array([2000.0, 0.0, -2000.0]))
        assert np.all(np.isfinite(y))
        assert np.all(y > 0.0)
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)

    def test_equal_scores_give_neutral_direction(self):
        layer = PositiveHead()
        y, _ = layer.forward(np.zeros(3))
        np.testing.assert_allclose(y, np.ones(3) / np.sqrt(3.0), atol=1e-15)

    def test_batch_rows_match_single_calls(self):
        rng = np.random.default_rng(48)
        layer = PositiveHead()
        x = rng.normal(size=(6, 3))
        y, _ = layer.forward(x)
        for i in range(6):
            row, _ = layer.forward(x[i])
            np.testing.assert_allclose(y[i], row, atol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(49)
        check_layer(PositiveHead(), rng.normal(size=3))
        check_layer(PositiveHead(), rng.normal(size=(4, 3)))


def initialised(layer, seed):
    layer.init(np.random.default_rng(seed))
    return layer


# (layer, item shape at spatial size s); every kind but Dropout, which
# cannot tell a spatial map from a stack.
STACKABLE = {
    "conv3x3": (lambda: initialised(Conv3x3(5, 7), 110), lambda s: (s, s, 5)),
    "affine-spatial": (lambda: initialised(Affine(5, 7), 111), lambda s: (s, s, 5)),
    "affine-vector": (lambda: initialised(Affine(5, 7), 112), lambda s: (5,)),
    "relu-spatial": (Relu, lambda s: (s, s, 5)),
    "relu-vector": (Relu, lambda s: (5,)),
    "mean-pool": (MeanPool, lambda s: (s, s, 5)),
    "max-pool": (MaxPool, lambda s: (s, s, 5)),
    "positive-head": (PositiveHead, lambda s: (3,)),
}


@pytest.mark.parametrize("size", [16, 64])
@pytest.mark.parametrize("make,item", STACKABLE.values(), ids=STACKABLE.keys())
def test_forward_carries_a_leading_axis_bit_for_bit(make, item, size):
    """Forward on a (nu, ...) stack is the stack of per-item forwards,
    byte for byte: the MC passes run every layer over the pass axis."""
    layer = make()
    x = np.random.default_rng(113).normal(size=(7, *item(size)))
    want = np.stack([layer.forward(row)[0] for row in x])
    assert layer.forward(x)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [16, 64])
@pytest.mark.parametrize("make,item", STACKABLE.values(), ids=STACKABLE.keys())
def test_backward_gives_each_row_its_own_gradients_bit_for_bit(make, item, size):
    """Backward on 7 rows holds, row by row, the input gradient and the
    parameter gradients of that row's one-row backward, byte for byte;
    ``Network.backward`` sums the rows."""
    layer = make()
    rng = np.random.default_rng(114)
    x = rng.normal(size=(7, *item(size)))
    y, cache = layer.forward(x)
    dy = rng.normal(size=y.shape)
    dx, grads = layer.backward(dy, cache)
    assert set(grads) == set(layer.params)
    for k in range(7):
        row_dx, row_grads = layer.backward(dy[k : k + 1], layer.forward(x[k : k + 1])[1])
        assert dx[k : k + 1].tobytes() == row_dx.tobytes()
        for name, grad in grads.items():
            assert grad.shape == (7, *layer.params[name].shape)
            assert grad[k : k + 1].tobytes() == row_grads[name].tobytes()


def test_every_layer_class_defines_its_own_forward_and_backward():
    """perfbench's tracer wraps a layer class's ``forward`` and
    ``backward`` as it finds them in the class's own ``__dict__``, so a
    layer that inherited either would break every traced run."""
    classes = [getattr(layers, name) for name in layers.__all__]
    kinds = [cls for cls in classes if isinstance(cls, type) and hasattr(cls, "kind")]
    assert kinds
    for cls in kinds:
        assert {"forward", "backward"} <= set(vars(cls)), cls.__name__


class TestPassSeed:
    def test_rejects_negative_pass_index(self):
        with pytest.raises(ValueError):
            PassSeed(0, -1)

    @pytest.mark.parametrize(
        "args,field",
        [((-1,), "base_seed"), ((2**64,), "base_seed"), ((0, 2**64), "pass_index")],
    )
    def test_rejects_keys_outside_uint64(self, args, field):
        """Both fields are uint64 mask-key material."""
        with pytest.raises(ValueError, match=f"^{field} must lie in"):
            PassSeed(*args)

    @pytest.mark.parametrize(
        "args,field",
        [((1.0,), "base_seed"), ((0, True), "pass_index"), ((np.uint64(3),), "base_seed")],
    )
    def test_rejects_non_integers(self, args, field):
        """A numpy integer too: seed fields take Python ints, as every config does."""
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            PassSeed(*args)

    def test_is_hashable_and_frozen(self):
        seed = PassSeed(3, 4)
        assert hash(seed) == hash(PassSeed(3, 4))
        with pytest.raises(Exception):
            seed.pass_index = 5

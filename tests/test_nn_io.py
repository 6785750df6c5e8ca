"""Binary network container: bit-exact round trips and format errors."""

import hashlib
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from mcde.mc import mc_estimate
from mcde.nn import (
    FORMAT_VERSION,
    Affine,
    Conv3x3,
    Dropout,
    MaxPool,
    MeanPool,
    Mode,
    ModelFormatError,
    Network,
    PassSeed,
    PositiveHead,
    Relu,
    TrainConfig,
    build,
    load_network,
    save_network,
    train,
)
from mcde.nn.archs import MAX_CHANNELS, stack
from mcde.datagen import GenConfig, gen_dataset


@pytest.fixture(scope="module")
def trained_net():
    scenes = gen_dataset(
        GenConfig(n_scenes=4, width=8, height=8, n_patches=9, noise_std=0.0, base_seed=200)
    ).scenes
    net = build("m-net", seed=50, channels=5, dropout_rate=0.25)
    net, trace = train(net, scenes, TrainConfig(epochs=3, learning_rate=0.05, base_seed=51))
    return net, trace


class TestRoundTrip:
    def test_weights_bit_exact(self, trained_net, tmp_path):
        net, _ = trained_net
        path = tmp_path / "model.net"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.arch == net.arch
        assert [l.kind for l in loaded.layers] == [l.kind for l in net.layers]
        for a, b in zip(net.layers, loaded.layers):
            assert set(a.params) == set(b.params)
            for name in a.params:
                np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_parameters_load_as_the_saved_float32(self, trained_net, tmp_path):
        net, _ = trained_net
        path = tmp_path / "model.net"
        save_network(net, path)
        for a, b in zip(net.layers, load_network(path).layers):
            for name, param in a.params.items():
                assert param.dtype == b.params[name].dtype == np.float32
                assert param.tobytes() == b.params[name].tobytes()

    def test_dropout_rate_survives(self, trained_net, tmp_path):
        net, _ = trained_net
        path = tmp_path / "model.net"
        save_network(net, path)
        loaded = load_network(path)
        rates = [l.rate for l in loaded.layers if l.kind == "dropout"]
        assert rates == [0.25]

    def test_forward_passes_identical(self, trained_net, tmp_path):
        net, _ = trained_net
        path = tmp_path / "model.net"
        save_network(net, path)
        loaded = load_network(path)
        pixels = np.random.default_rng(52).uniform(0.0, 1.0, (8, 8, 3))
        np.testing.assert_array_equal(net.forward(pixels), loaded.forward(pixels))
        np.testing.assert_array_equal(
            net.forward(pixels, Mode.MC, PassSeed(3, 1)),
            loaded.forward(pixels, Mode.MC, PassSeed(3, 1)),
        )
        a = mc_estimate(net, pixels, nu=4, base_seed=9)
        b = mc_estimate(loaded, pixels, nu=4, base_seed=9)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.sigma, b.sigma)

    def test_save_is_deterministic(self, trained_net, tmp_path):
        net, _ = trained_net
        save_network(net, tmp_path / "a.net")
        save_network(net, tmp_path / "b.net")
        assert (tmp_path / "a.net").read_bytes() == (tmp_path / "b.net").read_bytes()

    @pytest.mark.parametrize("arch", ["g-net", "m-net"])
    @pytest.mark.parametrize("channels, rate", [(1, 0.0), (4, 0.5), (12, 0.3), (33, 0.999)])
    def test_stock_networks_round_trip(self, arch, channels, rate, tmp_path):
        net = build(arch, seed=channels, channels=channels, dropout_rate=rate)
        zeros = stack(arch, channels, rate)

        def layout(n):
            return [(l.kind, {k: p.shape for k, p in l.params.items()}) for l in n.layers]

        assert layout(zeros) == layout(net)
        assert all(not p.any() for l in zeros.layers for p in l.params.values())
        path = tmp_path / "model.net"
        save_network(net, path)
        loaded = load_network(path)
        assert (loaded.arch, loaded.layers[0].c_out) == (arch, channels)
        assert [l.rate for l in loaded.layers if l.kind == "dropout"] == [rate]
        assert [l.kind for l in loaded.layers] == [l.kind for l in net.layers]
        for a, b in zip(net.layers, loaded.layers):
            assert set(a.params) == set(b.params)
            for name, param in a.params.items():
                assert param.tobytes() == b.params[name].tobytes()

    @pytest.mark.parametrize("arch", ["g-net", "m-net"])
    def test_save_and_load_draw_no_weights(self, arch, tmp_path, monkeypatch):
        """Saving compares against the zero ``stack`` and loading fills it:
        neither draws init weights."""
        net = build(arch, seed=54, channels=6, dropout_rate=0.2)

        def refuse(self, rng):
            raise AssertionError(f"{type(self).__name__}.init called")

        monkeypatch.setattr(Conv3x3, "init", refuse)
        monkeypatch.setattr(Affine, "init", refuse)
        path = tmp_path / "model.net"
        save_network(net, path)
        loaded = load_network(path)
        for a, b in zip(net.layers, loaded.layers, strict=True):
            assert a.kind == b.kind
            assert {n: p.tobytes() for n, p in a.params.items()} == {
                n: p.tobytes() for n, p in b.params.items()
            }

    @pytest.mark.parametrize(
        "arch, net_sha, sidecar_sha",
        [
            (
                "g-net",
                "3ad74976f212763efd08ee8bc0175fa595e04fbe15cdfd81e18d58728560b9da",
                "12f4638eaf833540587641fb07c08bdf81a37dfcb9f6349ffbb2e5d96a84e5d9",
            ),
            (
                "m-net",
                "487e64d0a9929638ffe129eb992e9755140be9de7e9762bdbd5efb2ee94d9b7f",
                "62430947fcff6d872b760b1fd4e1b8b4f1a9baddd1bb58d7c0662e93f467f1bc",
            ),
        ],
        ids=["g-net", "m-net"],
    )
    def test_stock_files_are_pinned(self, arch, net_sha, sidecar_sha, tmp_path):
        """The bytes of a saved stock network and its sidecar are part of
        the format: any change to them breaks files already written."""
        path = tmp_path / "model.net"
        save_network(build(arch, seed=7), path, training={"epochs": 2}, loss_trace=[0.5, 0.25])
        assert hashlib.sha256(path.read_bytes()).hexdigest() == net_sha
        sidecar = (tmp_path / "model.net.json").read_bytes()
        assert hashlib.sha256(sidecar).hexdigest() == sidecar_sha


class TestSidecar:
    def test_describes_training_and_architecture(self, trained_net, tmp_path):
        net, trace = trained_net
        path = tmp_path / "model.net"
        save_network(net, path, training={"seed": 51}, loss_trace=trace)
        sidecar = json.loads((tmp_path / "model.net.json").read_text())
        assert sidecar == {
            "format_version": FORMAT_VERSION,
            "arch": "m-net",
            "channels": 5,
            "dropout_rate": 0.25,
            "layers": ["conv3x3", "relu", "max-pool", "dropout", "affine", "positive-head"],
            "training": {"seed": 51},
            "loss_trace": trace,
        }

    def test_binary_alone_rebuilds(self, trained_net, tmp_path):
        """The sidecar is documentation; loading must not need it."""
        net, _ = trained_net
        path = tmp_path / "model.net"
        save_network(net, path)
        (tmp_path / "model.net.json").unlink()
        loaded = load_network(path)
        assert loaded.arch == "m-net"


class TestFormatErrors:
    def _saved(self, tmp_path):
        net = build("g-net", seed=53, channels=4)
        path = tmp_path / "model.net"
        save_network(net, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="magic"):
            load_network(path)

    def test_unsupported_version(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="version"):
            load_network(path)

    def test_version_1_is_refused_by_name(self, tmp_path):
        """Version 1 held float64 parameters, so a float32 network cannot
        come back from it bit for bit; version 2 held a record per layer,
        which a stock network does not need."""
        for version in (1, 2):
            path = self._saved(tmp_path)
            blob = bytearray(path.read_bytes())
            blob[8:12] = struct.pack("<I", version)
            path.write_bytes(bytes(blob))
            message = rf"^unsupported container version {version} \(expected 3\)$"
            with pytest.raises(ModelFormatError, match=message):
                load_network(path)

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_network(path)

    def test_trailing_garbage(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_network(path)

    @pytest.mark.parametrize(
        "offset, message",
        # The first byte of "g-net", after magic, version and length.
        [(14, "arch name is not valid utf-8")],
        ids=["arch"],
    )
    def test_undecodable_name_names_the_field(self, tmp_path, offset, message):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[offset] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match=message):
            load_network(path)

    @pytest.mark.parametrize(
        "header, cut, message",
        [
            (("x-net", 4, 0.3), 0, r"invalid model header: unknown architecture 'x-net'"),
            (("g-net", 4, 1.5), 0, r"invalid model header: dropout_rate .* got 1\.5$"),
            (("g-net", 4, math.nan), 0, r"invalid model header: dropout_rate .* got nan$"),
            (("m-net", 0, 0.3), 0, r"invalid model header: channels must lie in \[1, 1024\], got 0$"),
            (
                ("g-net", 4, 0.3),
                -1,
                r"truncated model file: the parameters of a g-net with 4 channels "
                r"need 508 bytes, but only 507 remain$",
            ),
            (
                ("g-net", 4, 0.3),
                1,
                r"trailing bytes after the parameters: 1 beyond the 508 that a g-net "
                r"with 4 channels needs$",
            ),
        ],
        ids=["unknown-arch", "rate-1.5", "rate-nan", "zero-channels", "byte-short", "byte-extra"],
    )
    def test_bad_header_names_the_field(self, tmp_path, header, cut, message):
        """The header is checked, and the bytes left must be exactly the
        parameters it implies: 31 floats per channel and 3 more."""
        arch, channels, rate = header
        params = b"\x00" * (4 * (31 * channels + 3) + cut)
        path = tmp_path / "model.net"
        path.write_bytes(_header(arch, channels, rate) + params)
        with pytest.raises(ModelFormatError, match=f"^{message}"):
            load_network(path)

    @pytest.mark.parametrize(
        "net, message",
        [
            (lambda: Network(build("g-net").layers, arch="x" * 65536), "unknown architecture 'xxx"),
            (lambda: Network(build("g-net").layers, arch="bad\udc80"), "unknown architecture 'bad"),
            (
                lambda: Network(build("g-net").layers, arch="m-net"),
                "layer 2 differs from the m-net with channels=12 and dropout_rate=0.3$",
            ),
            (
                lambda: Network([*build("g-net").layers, Relu()], arch="g-net"),
                "layer 6 differs from the g-net with channels=12 and dropout_rate=0.3$",
            ),
        ],
        ids=["too-long", "not-utf-8", "g-net-as-m-net", "extra-relu"],
    )
    def test_bad_arch_name_is_refused_before_the_file_opens(self, tmp_path, net, message):
        """A network that is not what ``build`` gives for its arch name,
        channel count and rate is refused, and no file is created."""
        refused = tmp_path / "refused.net"
        with pytest.raises(ModelFormatError, match=f"^not a stock network: {message}"):
            save_network(net(), refused)
        assert not refused.exists()

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not a network")
        with pytest.raises(ModelFormatError):
            load_network(path)


def _header(arch: str, channels: int, rate: float) -> bytes:
    name = arch.encode()
    return b"".join([
        b"MCDENET1", struct.pack("<IH", FORMAT_VERSION, len(name)), name,
        struct.pack("<Id", channels, rate),
    ])


class TestStructureChecks:
    """A file holds a stock network, so ``save_network`` refuses any other
    stack before the file opens, naming the first layer that differs
    from what ``build`` gives for the arch, channel count and rate."""

    def _refused(self, tmp_path, layers, message):
        refused = tmp_path / "refused.net"
        with pytest.raises(ModelFormatError, match=f"^not a stock network: {message}"):
            save_network(Network(layers, arch="g-net"), refused)
        assert not refused.exists()

    def test_broken_channel_chain_names_the_layer(self, tmp_path):
        layers = [Conv3x3(3, 4), Relu(), Dropout(0.3), MeanPool(), Affine(5, 3), PositiveHead()]
        self._refused(tmp_path, layers, "layer 4 differs from the g-net with channels=4")

    def test_first_layer_must_take_rgb(self, tmp_path):
        layers = [Conv3x3(5, 4), Relu(), Dropout(0.3), MeanPool(), Affine(4, 3), PositiveHead()]
        self._refused(tmp_path, layers, "layer 0 differs from the g-net with channels=4")

    @pytest.mark.parametrize(
        "layers, message",
        [
            (
                lambda: [Conv3x3(3, 4), Relu(), MeanPool(), Affine(4, 5), PositiveHead()],
                "layer 2 differs from the g-net with channels=4 and dropout_rate=0.0$",
            ),
            (
                lambda: [Conv3x3(3, 4), Relu(), Dropout(0.3), MeanPool(), Affine(4, 3)],
                "layer 5 differs from the g-net with channels=4 and dropout_rate=0.3$",
            ),
            (
                lambda: [Conv3x3(3, 4), Relu(), Dropout(0.3), MeanPool(), Affine(4, 3),
                         PositiveHead(), Relu()],
                "layer 6 differs from the g-net with channels=4 and dropout_rate=0.3$",
            ),
            (lambda: [], r"channels must lie in \[1, 1024\], got 0$"),
            (
                lambda: [Conv3x3(3, 3), PositiveHead()],
                "layer 1 differs from the g-net with channels=3 and dropout_rate=0.0$",
            ),
            (
                lambda: [Conv3x3(3, 4), Relu(), Dropout(0.3), MeanPool(), MaxPool(),
                         Affine(4, 3), PositiveHead()],
                "layer 4 differs from the g-net with channels=4 and dropout_rate=0.3$",
            ),
            (
                lambda: [Conv3x3(3, 4), Relu(), Dropout(0.3), MeanPool(), Conv3x3(4, 3),
                         PositiveHead()],
                "layer 4 differs from the g-net with channels=4 and dropout_rate=0.3$",
            ),
            (
                lambda: [Conv3x3(3, 4), Relu(), Dropout(0.3), Conv3x3(4, 4), MeanPool(),
                         Affine(4, 3), PositiveHead()],
                "layer 3 differs from the g-net with channels=4 and dropout_rate=0.3$",
            ),
            (
                lambda: [Conv3x3(3, 4), Dropout(0.3), Relu(), MeanPool(), Affine(4, 3),
                         PositiveHead()],
                "layer 1 differs from the g-net with channels=4 and dropout_rate=0.3$",
            ),
            (
                lambda: [Dropout(0.3), Conv3x3(3, 4), Relu(), MeanPool(), Affine(4, 3),
                         PositiveHead()],
                "layer 0 differs from the g-net with channels=4 and dropout_rate=0.3$",
            ),
        ],
        ids=["ends-at-5", "no-head", "head-not-last", "empty", "no-pool", "two-pools",
             "conv-after-pool", "dropout-conv-pool", "dropout-relu-pool", "dropout-first"],
    )
    def test_end_of_chain_is_checked(self, tmp_path, layers, message):
        self._refused(tmp_path, layers(), message)

    def test_parameters_beyond_the_file_are_not_allocated(self, tmp_path):
        """A MAX_CHANNELS g-net header in a ~100 byte file would need
        127 kB of float32 parameters; it is rejected as truncated before
        they are read."""
        blob = _header("g-net", MAX_CHANNELS, 0.3) + b"\x00" * 60
        path = tmp_path / "model.net"
        path.write_bytes(blob)
        assert len(blob) < 120
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match="need 126988 bytes, but only 60 remain"):
                load_network(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("channels", [MAX_CHANNELS + 1, 100_000, 2**32 - 1])
    def test_channels_beyond_the_bound_are_refused_from_the_header(self, tmp_path, channels):
        """A header wider than MAX_CHANNELS is refused by its bound,
        before a stack of that width is allocated."""
        path = tmp_path / "model.net"
        path.write_bytes(_header("g-net", channels, 0.3) + b"\x00" * 60)
        tracemalloc.start()
        try:
            with pytest.raises(
                ModelFormatError,
                match=rf"^invalid model header: channels must lie in \[1, 1024\], got {channels}$",
            ):
                load_network(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

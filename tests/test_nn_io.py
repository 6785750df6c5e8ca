"""Binary network container: bit-exact round trips and format errors."""

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from mcde.mc import mc_estimate
from mcde.nn import io
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

    @pytest.mark.parametrize(
        "arch, net_sha, sidecar_sha",
        [
            (
                "g-net",
                "e98bfd5926d6539a4e9f9bd9de8a6bd8fa04582c5de9dc7b7fb7749545e64f40",
                "42178edf50c437e5ceeaa3b6fb27329421405d973e136e675cf13edcb58629ad",
            ),
            (
                "m-net",
                "0ee127c9b8bff407c6553a795ac986e1914ca3a2e36636444be774bf70e31234",
                "df9506a07dc88b18788d198a90f55c0ee49524358dbb74d6284537483c70a0ee",
            ),
        ],
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
        assert sidecar["format_version"] == FORMAT_VERSION
        assert sidecar["arch"] == "m-net"
        assert sidecar["training"] == {"seed": 51}
        assert sidecar["loss_trace"] == trace
        kinds = [entry["kind"] for entry in sidecar["layers"]]
        assert kinds == ["conv3x3", "relu", "max-pool", "dropout", "affine", "positive-head"]

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
        """Version 1 held float64 parameters; a float32 network cannot
        come back from it bit for bit."""
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        message = r"^unsupported container version 1 \(expected 2\)$"
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
        [
            # The first byte of "g-net", after magic, version and length.
            (14, "arch name is not valid utf-8"),
            # The first byte of conv's first parameter name, after the
            # six 20-byte layer records, its parameter count and length.
            (14 + 5 + 4 + 6 * 20 + 4 + 1, "parameter name of layer 0 is not valid ascii"),
        ],
        ids=["arch", "param"],
    )
    def test_undecodable_name_names_the_field(self, tmp_path, offset, message):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[offset] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match=message):
            load_network(path)

    @pytest.mark.parametrize(
        "arch, message",
        [
            ("x" * 65536, "arch name is 65536 utf-8 bytes"),
            ("bad\udc80", "arch name is not valid utf-8 \\(bad character at offset 3\\)"),
        ],
        ids=["too-long", "not-utf-8"],
    )
    def test_bad_arch_name_is_refused_before_the_file_opens(self, tmp_path, arch, message):
        refused = tmp_path / "refused.net"
        layers = build("g-net", seed=53, channels=4).layers
        with pytest.raises(ModelFormatError, match=f"^{message}"):
            save_network(Network(layers, arch=arch), refused)
        assert not refused.exists()

    def test_longest_arch_name_round_trips(self, tmp_path):
        arch = "\u00e4" * 32767 + "x"  # 65535 utf-8 bytes
        path = tmp_path / "model.net"
        save_network(Network(build("g-net", seed=53, channels=4).layers, arch=arch), path)
        assert load_network(path).arch == arch

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not a network")
        with pytest.raises(ModelFormatError):
            load_network(path)


class TestStructureChecks:
    """Records are checked before any layer is built."""

    def _saved(self, tmp_path, layers):
        """Write ``layers`` as save_network does but without its record
        check, so that the file reaches load_network's own check."""
        path = tmp_path / "model.net"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io, "_check_records", lambda records, remaining: None)
            save_network(Network(layers, arch="custom"), path)
        return path

    def test_broken_channel_chain_names_the_layer(self, tmp_path):
        path = self._saved(
            tmp_path, [Conv3x3(3, 4), Relu(), MeanPool(), Affine(5, 3), PositiveHead()]
        )
        with pytest.raises(
            ModelFormatError, match="layer 3: affine takes 5 channels but its input has 4"
        ):
            load_network(path)

    def test_first_layer_must_take_rgb(self, tmp_path):
        path = self._saved(
            tmp_path, [Conv3x3(5, 4), Relu(), MeanPool(), Affine(4, 3), PositiveHead()]
        )
        with pytest.raises(
            ModelFormatError, match="layer 0: conv3x3 takes 5 channels but its input has 3"
        ):
            load_network(path)

    @pytest.mark.parametrize(
        "layers, message",
        [
            (
                lambda: [Conv3x3(3, 4), Relu(), MeanPool(), Affine(4, 5), PositiveHead()],
                "layer 3: affine gives 5 channels, but the chain must end at 3",
            ),
            (
                lambda: [Conv3x3(3, 4), Relu(), MeanPool(), Affine(4, 3)],
                "layer 3: the last layer is affine, not positive-head",
            ),
            (
                lambda: [Conv3x3(3, 4), Relu(), MeanPool(), Affine(4, 3), PositiveHead(), Relu()],
                "layer 5: the last layer is relu, not positive-head",
            ),
            (lambda: [], "model file has no layers"),
            (
                lambda: [Conv3x3(3, 3), PositiveHead()],
                "layer 1: no mean-pool or max-pool before the positive-head",
            ),
            (
                lambda: [Conv3x3(3, 4), Relu(), MeanPool(), MaxPool(), Affine(4, 3), PositiveHead()],
                "layer 3: max-pool after the mean-pool at layer 2",
            ),
            (
                lambda: [Conv3x3(3, 4), Relu(), MaxPool(), Conv3x3(4, 3), PositiveHead()],
                "layer 3: conv3x3 after the max-pool at layer 2",
            ),
            (
                lambda: [Conv3x3(3, 4), Relu(), Dropout(0.3), Conv3x3(4, 4), MeanPool(),
                         Affine(4, 3), PositiveHead()],
                "layer 2: dropout before the pool is followed by conv3x3, not by the pool",
            ),
            (
                lambda: [Conv3x3(3, 4), Dropout(0.3), Relu(), MaxPool(), Affine(4, 3),
                         PositiveHead()],
                "layer 1: dropout before the pool is followed by relu, not by the pool",
            ),
            (
                lambda: [Dropout(0.3), Conv3x3(3, 4), Relu(), MeanPool(), Affine(4, 3),
                         PositiveHead()],
                "layer 0: dropout before the pool is followed by conv3x3, not by the pool",
            ),
        ],
        ids=["ends-at-5", "no-head", "head-not-last", "empty", "no-pool", "two-pools",
             "conv-after-pool", "dropout-conv-pool", "dropout-relu-pool", "dropout-first"],
    )
    def test_end_of_chain_is_checked(self, tmp_path, layers, message):
        refused = tmp_path / "refused.net"
        with pytest.raises(ModelFormatError, match=message):
            save_network(Network(layers(), arch="custom"), refused)
        assert not refused.exists()
        path = self._saved(tmp_path, layers())
        with pytest.raises(ModelFormatError, match=message):
            load_network(path)

    def test_parameters_beyond_the_file_are_not_allocated(self, tmp_path):
        """A conv(3 -> 100000) record in a ~100 byte file would need
        11.2 MB of float32 parameters; it is rejected as truncated before
        anything that size is allocated."""
        arch = b"custom"
        blob = b"".join([
            b"MCDENET1",
            struct.pack("<IH", FORMAT_VERSION, len(arch)),
            arch,
            struct.pack("<I", 2),
            struct.pack("<IIId", 1, 3, 100000, 0.0),
            struct.pack("<IIId", 3, 0, 0, 0.0),
            b"\x00" * 40,
        ])
        path = tmp_path / "model.net"
        path.write_bytes(blob)
        assert len(blob) < 120
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match="layers 0-0 need 11200000 bytes"):
                load_network(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

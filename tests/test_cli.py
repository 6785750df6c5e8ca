"""End-to-end exercises of the command-line interface.

Every test drives ``mcde.cli.main`` with an argv list and checks the
documented exit-status contract: 0 success, 2 usage error, 1 runtime
error.
"""

import filecmp
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from mcde import cli, datagen, fusion
from mcde.color import apply_von_kries
from mcde.nn import (
    Conv3x3,
    Mode,
    Network,
    PositiveHead,
    build,
    load_network,
    save_network,
)
from mcde.seeding import derive_seed


def tree_bytes(root):
    root = Path(root)
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


GEN_FLAGS = ["--scenes", "6", "--width", "8", "--height", "8", "--seed", "11"]
TRAIN_FLAGS = ["--epochs", "2", "--channels", "4", "--lr", "0.05", "--seed", "11"]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    assert cli.main(["gen-data", *GEN_FLAGS, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def model_paths(tmp_path_factory, dataset_dir):
    root = tmp_path_factory.mktemp("models")
    paths = []
    for arch in ("g-net", "m-net"):
        out = root / f"{arch}.net"
        code = cli.main(
            ["train", "--arch", arch, "--data", str(dataset_dir),
             "--out", str(out), *TRAIN_FLAGS]
        )
        assert code == 0
        paths.append(out)
    return paths


class TestGenData:
    def test_writes_loadable_dataset(self, dataset_dir, capsys):
        dataset = datagen.load(dataset_dir)
        assert len(dataset.scenes) == 6
        assert dataset.config.base_seed == 11
        assert dataset.config.width == 8

    def test_reports_scene_count_and_pool(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert cli.main(
            ["gen-data", "--scenes", "3", "--out", str(out), "--pool", "band-a"]
        ) == 0
        text = capsys.readouterr().out
        assert "wrote 3 scenes" in text
        assert "band-a" in text

    def test_deterministic_output_tree(self, tmp_path):
        for name in ("a", "b"):
            assert cli.main(
                ["gen-data", *GEN_FLAGS, "--out", str(tmp_path / name)]
            ) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_missing_out_is_usage_error(self, capsys):
        assert cli.main(["gen-data", "--scenes", "3"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_bad_pool_is_usage_error(self, tmp_path, capsys):
        code = cli.main(
            ["gen-data", "--scenes", "3", "--out", str(tmp_path / "d"),
             "--pool", "band-z"]
        )
        assert code == 2

    def test_zero_scenes_is_usage_error(self, tmp_path):
        assert cli.main(
            ["gen-data", "--scenes", "0", "--out", str(tmp_path / "d")]
        ) == 2


class TestTrain:
    def test_writes_model_and_sidecar(self, model_paths):
        path = model_paths[0]
        assert path.is_file()
        sidecar = json.loads(Path(str(path) + ".json").read_text())
        assert sidecar["training"]["arch"] == "g-net"
        assert sidecar["training"]["channels"] == 4
        assert len(sidecar["loss_trace"]) == 2

    def test_saved_model_estimates_unit_vectors(self, model_paths, dataset_dir):
        net = load_network(model_paths[0])
        scene = datagen.load(dataset_dir).scenes[0]
        out = net.forward(scene.pixels, Mode.DETERMINISTIC)
        assert out.shape == (3,)
        np.testing.assert_allclose(np.linalg.norm(out), 1.0, atol=1e-12)

    def test_subset_trains_on_fewer_scenes(self, dataset_dir, tmp_path, capsys):
        code = cli.main(
            ["train", "--arch", "g-net", "--data", str(dataset_dir),
             "--out", str(tmp_path / "m.net"), "--subset", "0:4", *TRAIN_FLAGS]
        )
        assert code == 0
        assert "on 4 scenes" in capsys.readouterr().out

    def test_unknown_arch_is_usage_error(self, dataset_dir, tmp_path):
        code = cli.main(
            ["train", "--arch", "z-net", "--data", str(dataset_dir),
             "--out", str(tmp_path / "m.net")]
        )
        assert code == 2

    def test_missing_dataset_is_runtime_error(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--arch", "g-net", "--data", str(tmp_path / "nope"),
             "--out", str(tmp_path / "m.net")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_mistyped_manifest_is_runtime_error(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["checksums"] = ["x"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        code = cli.main(
            ["train", "--arch", "g-net", "--data", str(data),
             "--out", str(tmp_path / "m.net")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: invalid manifest contents: checksums must be an object of strings\n"

    def test_mistyped_manifest_config_is_runtime_error(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["config"]["width"] = 8.0
        (data / "manifest.json").write_text(json.dumps(manifest))
        code = cli.main(
            ["train", "--arch", "g-net", "--data", str(data),
             "--out", str(tmp_path / "m.net")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: invalid manifest contents: config: width must be an integer, got 8.0\n"

    def test_bad_subset_syntax_is_usage_error(self, dataset_dir, tmp_path):
        code = cli.main(
            ["train", "--arch", "g-net", "--data", str(dataset_dir),
             "--out", str(tmp_path / "m.net"), "--subset", "4"]
        )
        assert code == 2


class TestEstimate:
    def run_estimate(self, model_paths, dataset_dir, capsys, *extra):
        argv = ["estimate", "--models", *map(str, model_paths),
                "--data", str(dataset_dir), "--index", "1",
                "--nu", "4", "--seed", "9", *extra]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return json.loads(out)

    def test_record_matches_library_call(self, model_paths, dataset_dir, capsys):
        """The command is a thin wrapper: its JSON must reproduce the
        library fusion bit for bit."""
        record = self.run_estimate(model_paths, dataset_dir, capsys)
        nets = [load_network(p) for p in model_paths]
        scene = datagen.load(dataset_dir).scenes[1]
        want = fusion.mcde(nets, scene.pixels, nu=4, base_seed=9, variant="log")
        np.testing.assert_array_equal(record["fused"], want.fused)
        np.testing.assert_array_equal(record["weights"], want.weights)
        assert len(record["per_model"]) == 2
        for got, est in zip(record["per_model"], want.estimates):
            np.testing.assert_array_equal(got["mean"], est.mean)
            np.testing.assert_array_equal(got["sigma"], est.sigma)
            assert got["mu"] == est.mu
        assert record["config"]["variant"] == "log"
        assert record["errors"]["recovery_deg"] >= 0.0

    def test_variant_changes_weights_not_estimates(
        self, model_paths, dataset_dir, capsys
    ):
        log_rec = self.run_estimate(model_paths, dataset_dir, capsys)
        lin_rec = self.run_estimate(
            model_paths, dataset_dir, capsys, "--variant", "linear"
        )
        assert lin_rec["per_model"] == log_rec["per_model"]
        assert lin_rec["config"]["variant"] == "linear"

    def test_save_corrected_bytes(self, model_paths, dataset_dir, capsys, tmp_path):
        out = tmp_path / "corrected.f32"
        record = self.run_estimate(
            model_paths, dataset_dir, capsys, "--save-corrected", str(out)
        )
        scene = datagen.load(dataset_dir).scenes[1]
        want = apply_von_kries(scene.pixels, np.array(record["fused"]))
        assert out.read_bytes() == np.ascontiguousarray(want, dtype="<f4").tobytes()

    def test_index_out_of_range_is_runtime_error(
        self, model_paths, dataset_dir, capsys
    ):
        code = cli.main(
            ["estimate", "--models", *map(str, model_paths),
             "--data", str(dataset_dir), "--index", "99"]
        )
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_missing_model_file_is_runtime_error(self, dataset_dir, capsys):
        code = cli.main(
            ["estimate", "--models", "missing.net", "--data", str(dataset_dir)]
        )
        assert code == 1
        assert "missing.net" in capsys.readouterr().err

    def test_bad_model_file_is_named(self, model_paths, dataset_dir, tmp_path, capsys):
        """Of a good and a malformed model, the error names the malformed one."""
        bad = tmp_path / "nopool.net"
        save_network(Network([Conv3x3(3, 3), PositiveHead()]), bad)
        code = cli.main(
            ["estimate", "--models", str(model_paths[0]), str(bad),
             "--data", str(dataset_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: layer 1: ")

    def test_undecodable_model_file_is_named(self, dataset_dir, tmp_path, capsys):
        bad = tmp_path / "badname.net"
        save_network(build("g-net", seed=3, channels=4), bad)
        blob = bytearray(bad.read_bytes())
        blob[14] = 0xFF  # first byte of the arch name
        bad.write_bytes(bytes(blob))
        code = cli.main(["estimate", "--models", str(bad), "--data", str(dataset_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: arch name is not valid utf-8"
        )


BENCH_FLAGS = ["--k", "2", "--nu", "2", "--epochs", "1", "--channels", "4",
               "--seed", "5"]


class TestBench:
    def test_report_files_and_table(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "report"
        code = cli.main(
            ["bench", "--data", str(dataset_dir), "--out", str(out), *BENCH_FLAGS]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "mcde-log" in text
        assert "grey-world" in text
        assert (out / "config.json").is_file()
        assert (out / "summary.csv").is_file()
        assert (out / "per_sample.csv").is_file()
        assert (out / "uncertainty_per_sample.csv").is_file()
        echo = json.loads((out / "config.json").read_text())
        assert echo["folds"] == 2
        assert "workers" not in echo

    def test_rerun_is_byte_identical(self, dataset_dir, tmp_path):
        for name in ("a", "b"):
            assert cli.main(
                ["bench", "--data", str(dataset_dir), "--out",
                 str(tmp_path / name), *BENCH_FLAGS]
            ) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_worker_count_does_not_change_output(self, dataset_dir, tmp_path):
        for name, workers in (("a", "1"), ("b", "2")):
            assert cli.main(
                ["bench", "--data", str(dataset_dir), "--out",
                 str(tmp_path / name), "--workers", workers, *BENCH_FLAGS]
            ) == 0
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b",
            [p.name for p in (tmp_path / "a").iterdir()], shallow=False,
        )
        assert not mismatch and not errors

    def test_degenerate_scene_is_runtime_error_naming_it(
        self, dataset_dir, tmp_path, capsys
    ):
        """A scene whose blue channel is all black has no grey-world
        estimate: the run stops with one error line naming the sample."""
        dataset = datagen.load(dataset_dir)
        dataset.scenes[3].pixels[..., 2] = 0.0
        datagen.save(dataset, tmp_path / "black")
        code = cli.main(
            ["bench", "--data", str(tmp_path / "black"), "--out",
             str(tmp_path / "r"), *BENCH_FLAGS]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: fold 1 failed: sample 3: "
            "illuminant components must be strictly positive\n"
        )

    def test_too_few_folds_is_usage_error(self, dataset_dir, tmp_path):
        assert cli.main(
            ["bench", "--data", str(dataset_dir), "--out",
             str(tmp_path / "r"), "--k", "1"]
        ) == 2


class TestConfigFile:
    def test_config_only_run_matches_flags_run(self, tmp_path):
        conf = tmp_path / "gen.json"
        conf.write_text(json.dumps({
            "scenes": 6, "width": 8, "height": 8, "seed": 11,
            "out": str(tmp_path / "from_config"),
        }))
        assert cli.main(["gen-data", "--config", str(conf)]) == 0
        assert cli.main(
            ["gen-data", *GEN_FLAGS, "--out", str(tmp_path / "from_flags")]
        ) == 0
        assert tree_bytes(tmp_path / "from_config") == tree_bytes(
            tmp_path / "from_flags"
        )

    def test_explicit_flag_overrides_config(self, tmp_path):
        conf = tmp_path / "gen.json"
        conf.write_text(json.dumps({
            "scenes": 6, "width": 8, "height": 8, "seed": 1,
            "out": str(tmp_path / "overridden"),
        }))
        assert cli.main(
            ["gen-data", "--config", str(conf), "--seed", "11"]
        ) == 0
        assert cli.main(
            ["gen-data", *GEN_FLAGS, "--out", str(tmp_path / "direct")]
        ) == 0
        assert tree_bytes(tmp_path / "overridden") == tree_bytes(
            tmp_path / "direct"
        )

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "gen.json"
        conf.write_text(json.dumps({"scenes": 3, "out": "d", "shape": "wide"}))
        assert cli.main(["gen-data", "--config", str(conf)]) == 2
        assert "shape" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "gen.json"
        conf.write_text("{scenes: 3")
        assert cli.main(["gen-data", "--config", str(conf)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_json_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "gen.json"
        conf.write_text("[1, 2, 3]")
        assert cli.main(["gen-data", "--config", str(conf)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        assert cli.main(
            ["gen-data", "--config", str(tmp_path / "nope.json")]
        ) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_config_satisfies_required_flags(self, dataset_dir, tmp_path, capsys):
        """Required values may come from the config file alone."""
        conf = tmp_path / "train.json"
        conf.write_text(json.dumps({
            "arch": "g-net", "data": str(dataset_dir),
            "out": str(tmp_path / "m.net"),
            "epochs": 1, "channels": 4,
        }))
        assert cli.main(["train", "--config", str(conf)]) == 0
        assert (tmp_path / "m.net").is_file()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            pytest.param("gen-data", "scenes", "six", id="scenes-six"),
            pytest.param("gen-data", "pool", "band-z", id="pool-band-z"),
            pytest.param("gen-data", "scenes", True, id="scenes-true"),
            pytest.param("gen-data", "scenes", 3.0, id="scenes-3.0"),
            pytest.param("gen-data", "out", 6, id="out-6"),
            pytest.param("gen-data", "noise_std", float("nan"), id="noise_std-nan"),
            pytest.param("estimate", "models", [], id="models-empty"),
            pytest.param("train", "subset", "4", id="subset-4"),
            pytest.param("train", "subset", [0, 4], id="subset-list"),
            pytest.param("train", "dropout", 1.0, id="train-dropout-1"),
            pytest.param("bench", "dropout", 1.0, id="bench-dropout-1"),
            pytest.param("bench", "k", 0, id="k-0"),
        ],
    )
    def test_bad_config_value_is_usage_error(
        self, command, key, value, tmp_path, capsys
    ):
        """Every other key is valid, so the bad value alone must make the
        run a usage error that names the key or its flag."""
        missing = str(tmp_path / "nope")
        valid = {
            "gen-data": {"scenes": 3, "out": str(tmp_path / "d")},
            "train": {"arch": "g-net", "data": missing, "out": missing},
            "estimate": {"models": [missing], "data": missing},
            "bench": {"data": missing, "out": missing},
        }[command]
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({**valid, key: value}))
        assert cli.main([command, "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        flag = "--" + key.replace("_", "-")
        assert f"config key {key!r}" in err or f"argument {flag}" in err

    def test_abbreviated_config_flag_applies_file(self, tmp_path):
        conf = tmp_path / "gen.json"
        conf.write_text(json.dumps({"seed": 5}))
        out = tmp_path / "d"
        assert cli.main(
            ["gen-data", "--scenes", "1", "--width", "8", "--height", "8",
             "--out", str(out), "--conf", str(conf)]
        ) == 0
        assert datagen.load(out).config.base_seed == 5

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b'{"scenes": ' + b"1" * 5000 + b"}"],
        ids=["bad-utf8", "huge-integer"],
    )
    def test_undecodable_config_is_usage_error(self, tmp_path, capsys, content):
        conf = tmp_path / "gen.json"
        conf.write_bytes(content)
        assert cli.main(["gen-data", "--config", str(conf)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestTopLevel:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "gen-data" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--scenes", "1", "--noise-std", "nan"],
            ["gen-data", "--scenes", "1", "--noise-std", "inf"],
            ["train", "--arch", "g-net", "--data", "d", "--lr", "inf"],
            ["train", "--arch", "g-net", "--data", "d", "--dropout", "1.0"],
            ["bench", "--data", "d", "--dropout", "1.0"],
        ],
        ids=["noise-std-nan", "noise-std-inf", "lr-inf", "train-dropout-1",
             "bench-dropout-1"],
    )
    def test_out_of_range_float_flag_is_usage_error(self, argv, tmp_path, capsys):
        flag = argv[-2]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_subcommand_help_exits_zero(self, capsys):
        assert cli.main(["bench", "--help"]) == 0
        assert "--workers" in capsys.readouterr().out

    def test_seed_scheme_matches_library(self, dataset_dir, tmp_path, capsys):
        """Training twice with the same seed is bitwise reproducible,
        and the derived seeds are the documented hashes."""
        outs = []
        for name in ("a.net", "b.net"):
            out = tmp_path / name
            assert cli.main(
                ["train", "--arch", "m-net", "--data", str(dataset_dir),
                 "--out", str(out), *TRAIN_FLAGS]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert derive_seed("init", 11, "m-net") != derive_seed("init", 11, "g-net")

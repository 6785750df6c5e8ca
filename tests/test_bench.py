"""Benchmark statistics, cross-validation protocol, and report files."""

import csv
import math

import numpy as np
import pytest

from mcde import bench
from mcde.bench import (
    BenchConfig,
    ErrorStats,
    ScenarioConfig,
    TrainableSpec,
    band_shift_scenario,
    crossval,
    stats,
    write_report,
)
from mcde.color import Scene, normalize
from mcde.datagen import Dataset, GenConfig, gen_dataset
from mcde.seeding import derive_seed


def oracle_stats(values):
    """Reference statistics with scalar arithmetic.

    Quantiles follow the linear interpolation rule at position
    q * (n - 1); tail means average the ceil(q * n) most extreme
    values.
    """
    data = sorted(float(v) for v in values)
    n = len(data)

    def quantile(q):
        pos = q * (n - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return data[lo] + (data[hi] - data[lo]) * frac

    def tail_count(q):
        return math.ceil(q * n - 1e-12)

    q1, q2, q3 = quantile(0.25), quantile(0.5), quantile(0.75)
    c25, c10, c5 = tail_count(0.25), tail_count(0.10), tail_count(0.05)
    return ErrorStats(
        best25_mean=sum(data[:c25]) / c25,
        mean=sum(data) / n,
        median=q2,
        trimean=(q1 + 2.0 * q2 + q3) / 4.0,
        worst25_mean=sum(data[-c25:]) / c25,
        worst10_mean=sum(data[-c10:]) / c10,
        worst5_mean=sum(data[-c5:]) / c5,
    )


def grey_scene_dataset(n=8, seed=300):
    """Scenes with spatially varying grey reflectance: grey-world is exact."""
    rng = np.random.default_rng(seed)
    scenes = []
    config = GenConfig(n_scenes=n, width=8, height=8, noise_std=0.0, base_seed=seed)
    for _ in range(n):
        label = normalize(rng.uniform(0.3, 1.0, 3))
        reflectance = rng.uniform(0.1, 1.0, (8, 8, 1))
        pixels = (reflectance * label).astype(np.float32)
        scenes.append(Scene(pixels=pixels, label=label))
    return Dataset(scenes=scenes, config=config)


def tiny_config(**overrides):
    defaults = dict(
        folds=2,
        nu=3,
        base_seed=17,
        workers=1,
        trainables=(
            TrainableSpec(name="g-net", arch="g-net", channels=4, epochs=2,
                          learning_rate=0.05, batch_size=4),
            TrainableSpec(name="m-net", arch="m-net", channels=4, epochs=2,
                          learning_rate=0.05, batch_size=4),
        ),
    )
    defaults.update(overrides)
    return BenchConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_report():
    dataset = gen_dataset(
        GenConfig(n_scenes=8, width=8, height=8, pool="full", base_seed=301)
    )
    return crossval(dataset, tiny_config())


class TestStats:
    def test_one_through_eight_oracle(self):
        got = stats(range(1, 9))
        assert got == ErrorStats(
            best25_mean=1.5,
            mean=4.5,
            median=4.5,
            trimean=4.5,
            worst25_mean=7.5,
            worst10_mean=8.0,
            worst5_mean=8.0,
        )

    def test_single_value(self):
        got = stats([3.25])
        assert got == ErrorStats(3.25, 3.25, 3.25, 3.25, 3.25, 3.25, 3.25)

    def test_matches_scalar_oracle_on_random_samples(self):
        rng = np.random.default_rng(302)
        for n in (2, 3, 7, 40, 400):
            values = rng.uniform(0.0, 30.0, n)
            got = stats(values)
            want = oracle_stats(values)
            for field in ErrorStats.__dataclass_fields__:
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), abs=1e-12
                ), (field, n)

    def test_order_invariance(self):
        rng = np.random.default_rng(303)
        values = rng.uniform(0.0, 10.0, 31)
        assert stats(values) == stats(values[::-1])

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            stats([])

    def test_tail_counts_use_exact_ceil(self):
        """400 values: the worst-10% tail holds exactly 40, and with
        401 it must grow to 41 (ceil, no float rounding)."""
        values = np.arange(400, dtype=np.float64)
        assert stats(values).worst10_mean == np.mean(np.arange(360, 400))
        values = np.arange(401, dtype=np.float64)
        assert stats(values).worst10_mean == np.mean(np.arange(360, 401))


class TestCrossval:
    def test_baselines_only_on_grey_scenes(self, tmp_path):
        """With no trainables the protocol still runs, grey-world is
        exact on scenes built to satisfy its assumption, and the
        uncertainty table holds only its header."""
        dataset = grey_scene_dataset()
        report = crossval(dataset, tiny_config(trainables=()))
        assert report.methods == ("grey-world", "shades-of-grey")
        assert report.model_names == ()
        assert np.max(report.errors[("grey-world", "recovery")]) < 1e-5
        write_report(report, tmp_path / "report")
        table = tmp_path / "report" / "uncertainty_per_sample.csv"
        assert table.read_text(encoding="utf-8") == "sample,method,mu\n"

    def test_report_structure(self, tiny_report):
        report = tiny_report
        assert report.methods == (
            "grey-world",
            "shades-of-grey",
            "g-net",
            "m-net",
            "mcde-linear",
            "mcde-log",
            "ideal",
        )
        assert list(report.sample_ids) == list(range(8))
        for method in report.methods:
            for metric in ("recovery", "reproduction"):
                errors = report.errors[(method, metric)]
                assert errors.shape == (8,)
                assert np.all(errors >= 0.0)
                assert report.summary[(method, metric)] == stats(errors)
        for name in report.model_names:
            assert report.uncertainties[name].shape == (8,)
            assert np.all(report.uncertainties[name] >= 0.0)

    def test_ideal_is_the_per_sample_minimum(self, tiny_report):
        report = tiny_report
        for metric in ("recovery", "reproduction"):
            members = np.stack(
                [report.errors[(name, metric)] for name in report.model_names]
            )
            np.testing.assert_array_equal(
                report.errors[("ideal", metric)], members.min(axis=0)
            )

    def test_deterministic_across_runs_and_workers(self):
        dataset = gen_dataset(
            GenConfig(n_scenes=6, width=8, height=8, base_seed=304)
        )
        a = crossval(dataset, tiny_config())
        b = crossval(dataset, tiny_config())
        c = crossval(dataset, tiny_config(workers=2))
        for key in a.errors:
            np.testing.assert_array_equal(a.errors[key], b.errors[key])
            np.testing.assert_array_equal(a.errors[key], c.errors[key])

    def test_degenerate_scene_fails_naming_its_sample(self):
        """One scene without a grey-world estimate stops the run, and
        the error names the fold and the sample."""
        dataset = grey_scene_dataset(n=6)
        dataset.scenes[4].pixels[..., 1] = 0.0
        with pytest.raises(RuntimeError, match=r"^fold 1 failed: sample 4: illuminant"):
            crossval(dataset, tiny_config(trainables=()))

    def test_config_echo_omits_execution_details(self, tiny_report):
        echo = tiny_report.config
        assert "workers" not in echo
        assert "out_dir" not in echo
        assert echo["protocol"] == "cross-validation"
        assert echo["folds"] == 2
        assert echo["dataset"]["base_seed"] == 301


class TestReportFiles:
    def test_files_written(self, tiny_report, tmp_path):
        write_report(tiny_report, tmp_path / "report")
        names = sorted(p.name for p in (tmp_path / "report").iterdir())
        assert names == [
            "config.json",
            "per_sample.csv",
            "summary.csv",
            "uncertainty_per_sample.csv",
        ]

    def test_write_is_byte_deterministic(self, tiny_report, tmp_path):
        write_report(tiny_report, tmp_path / "a")
        write_report(tiny_report, tmp_path / "b")
        for p in sorted((tmp_path / "a").iterdir()):
            assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()

    def test_summary_recomputable_from_per_sample(self, tiny_report, tmp_path):
        """summary.csv must equal statistics recomputed from
        per_sample.csv rows, parsed back from text, to 1e-12."""
        write_report(tiny_report, tmp_path / "report")
        errors: dict = {}
        with open(tmp_path / "report" / "per_sample.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["method"], row["metric"])
                errors.setdefault(key, []).append(float(row["error_deg"]))
        with open(tmp_path / "report" / "summary.csv", newline="") as fh:
            summary_rows = list(csv.DictReader(fh))
        assert len(summary_rows) == len(errors)
        for row in summary_rows:
            want = oracle_stats(errors[(row["method"], row["metric"])])
            for field in ErrorStats.__dataclass_fields__:
                assert float(row[field]) == pytest.approx(
                    getattr(want, field), abs=1e-12
                )

    def test_full_precision_round_trip(self, tiny_report, tmp_path):
        """CSV decimals carry 17 significant digits, so parsing them
        back recovers the in-memory float64 exactly."""
        write_report(tiny_report, tmp_path / "report")
        with open(tmp_path / "report" / "per_sample.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_key: dict = {}
        for row in rows:
            by_key.setdefault((row["method"], row["metric"]), []).append(
                float(row["error_deg"])
            )
        for (method, metric), values in by_key.items():
            np.testing.assert_array_equal(
                np.array(values), tiny_report.errors[(method, metric)]
            )
        with open(tmp_path / "report" / "uncertainty_per_sample.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(row["sample"]), row["method"]) for row in rows] == [
            (int(i), name) for i in tiny_report.sample_ids for name in tiny_report.model_names
        ]
        for name in tiny_report.model_names:
            np.testing.assert_array_equal(
                np.array([float(row["mu"]) for row in rows if row["method"] == name]),
                tiny_report.uncertainties[name],
            )


class TestBandShiftScenario:
    def test_micro_scenario_runs_and_echoes_config(self):
        config = ScenarioConfig(
            seed=5, eval_per_band=3, train_per_band=4, nu=2, epochs=1, channels=4
        )
        report = band_shift_scenario(config)
        assert report.config["protocol"] == "band-shift-scenario"
        assert report.config["seed"] == 5
        assert list(report.sample_ids) == list(range(6))
        assert report.model_names == ("g-net", "m-net")
        assert report.methods == (
            "grey-world",
            "shades-of-grey",
            "g-net",
            "m-net",
            "mcde-linear",
            "mcde-log",
            "ideal",
        )
        keys = {(m, metric) for m in report.methods for metric in ("recovery", "reproduction")}
        assert set(report.errors) == set(report.summary) == keys
        for key, errors in report.errors.items():
            assert errors.shape == (6,)
            assert report.summary[key] == stats(errors)
        for metric in ("recovery", "reproduction"):
            members = np.stack([report.errors[(name, metric)] for name in report.model_names])
            np.testing.assert_array_equal(report.errors[("ideal", metric)], members.min(axis=0))
        for name in report.model_names:
            assert report.uncertainties[name].shape == (6,)

    def test_members_match_in_process_training_bitwise(self, monkeypatch):
        """The members trained in worker processes equal, byte for byte,
        ``_train_member`` run here on the same scenes and seeds, and so
        do the report's errors and uncertainties."""
        config = ScenarioConfig(
            seed=6, eval_per_band=3, train_per_band=6, nu=2, epochs=2, channels=4
        )
        calls = []
        evaluate = bench._evaluate_samples

        def recording(models, *args):
            calls.append((models, args))
            return evaluate(models, *args)

        monkeypatch.setattr(bench, "_evaluate_samples", recording)
        report = band_shift_scenario(config)
        ((models, eval_args),) = calls

        reference = []
        for name, band in (("g-net", "band-a"), ("m-net", "band-b")):
            spec = TrainableSpec(
                name=name,
                arch=name,
                channels=config.channels,
                dropout_rate=config.dropout_rate,
                epochs=config.epochs,
                learning_rate=config.learning_rate,
                batch_size=config.batch_size,
            )
            scenes = gen_dataset(
                GenConfig(
                    n_scenes=config.train_per_band,
                    width=config.width,
                    height=config.height,
                    n_patches=config.n_patches,
                    pool=band,
                    noise_std=config.noise_std,
                    base_seed=derive_seed("scenario-train", config.seed, band),
                )
            ).scenes
            net = bench._train_member(
                spec,
                scenes,
                init_seed=derive_seed("scenario-init", config.seed, name),
                train_seed=derive_seed("scenario-train-loop", config.seed, name),
            )
            reference.append((name, net))

        assert [name for name, _ in models] == [name for name, _ in reference]
        for (_, net), (_, ref) in zip(models, reference):
            assert len(net.layers) == len(ref.layers)
            for layer, ref_layer in zip(net.layers, ref.layers):
                assert set(layer.params) == set(ref_layer.params)
                for key, value in layer.params.items():
                    assert value.tobytes() == ref_layer.params[key].tobytes()

        errors, uncertainties = evaluate(reference, *eval_args)
        assert set(report.errors) == set(errors)
        for key, values in errors.items():
            assert report.errors[key].tobytes() == np.array(values).tobytes()
        for name, values in uncertainties.items():
            assert report.uncertainties[name].tobytes() == np.array(values).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_member_is_named(self):
        """A member that diverges in its worker reaches the caller as a
        plain RuntimeError naming it, not as a broken pool."""
        config = ScenarioConfig(
            seed=5, eval_per_band=2, train_per_band=4, nu=2, epochs=2, channels=4,
            batch_size=2, learning_rate=1e300,
        )
        with pytest.raises(RuntimeError) as info:
            band_shift_scenario(config)
        assert type(info.value) is RuntimeError
        assert str(info.value).startswith("member g-net failed: training diverged at epoch 1: ")

"""Benchmark statistics, cross-validation protocol, and report files."""

import csv
import math
import multiprocessing
import re
from types import SimpleNamespace

import numpy as np
import pytest

from mcde import baselines, bench, fusion
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
from mcde.color import METRICS, Scene, normalize
from mcde.datagen import MAX_PIXELS, Dataset, GenConfig, folds, gen_dataset
from mcde.mc import MAX_NU
from mcde.nn import NumericError
from mcde.nn.archs import MAX_CHANNELS, build
from mcde.nn.training import TrainConfig
from mcde.seeding import derive_seed


def methods(report):
    """The report's methods, in the order of its errors' keys."""
    return tuple(dict.fromkeys(method for method, _ in report.errors))


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


def built_member(spec, scenes, init_seed, train_seed):
    """Stands in for ``bench.train_member`` without training: the
    member as ``build`` makes it from ``init_seed``."""
    net = build(spec.arch, seed=init_seed, channels=spec.channels,
                dropout_rate=spec.dropout_rate)
    return net, []


def in_process_pool(monkeypatch):
    """Put a recording stand-in for ``ProcessPoolExecutor`` into ``bench``,
    which runs the pool's initializer and map in this process, and
    return the list of each pool's ``max_workers``."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            pools.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(bench, "_worker_args", None)
    return pools


@pytest.fixture(scope="module")
def tiny_report():
    dataset = gen_dataset(
        GenConfig(n_scenes=8, width=8, height=8, pool="full", base_seed=301)
    )
    return crossval(dataset, tiny_config())


def test_fill_takes_every_field_not_given_from_the_source():
    source = SimpleNamespace(epochs=3, learning_rate=0.02, batch_size=4, base_seed=9, arch="x")
    assert bench.fill(TrainConfig, source, base_seed=5) == TrainConfig(
        epochs=3, learning_rate=0.02, batch_size=4, base_seed=5
    )
    with pytest.raises(AttributeError, match="batch_size"):
        bench.fill(TrainConfig, SimpleNamespace(epochs=3, learning_rate=0.02))


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
        assert methods(report) == ("grey-world", "shades-of-grey")
        assert tuple(report.uncertainties) == ()
        assert np.max(report.errors[("grey-world", "recovery")]) < 1e-5
        write_report(report, tmp_path / "report")
        table = tmp_path / "report" / "uncertainty_per_sample.csv"
        assert table.read_text(encoding="utf-8") == "sample,method,mu\n"

    def test_report_structure(self, tiny_report):
        report = tiny_report
        assert methods(report) == (
            "grey-world",
            "shades-of-grey",
            "g-net",
            "m-net",
            "mcde-linear",
            "mcde-log",
            "ideal",
        )
        for method in methods(report):
            for metric in ("recovery", "reproduction"):
                errors = report.errors[(method, metric)]
                assert errors.shape == (8,)
                assert np.all(errors >= 0.0)
        for name in report.uncertainties:
            assert report.uncertainties[name].shape == (8,)
            assert np.all(report.uncertainties[name] >= 0.0)

    def test_ideal_is_the_per_sample_minimum(self, tiny_report):
        report = tiny_report
        for metric in ("recovery", "reproduction"):
            members = np.stack(
                [report.errors[(name, metric)] for name in report.uncertainties]
            )
            np.testing.assert_array_equal(
                report.errors[("ideal", metric)], members.min(axis=0)
            )

    def test_errors_equal_per_scene_scalar_scoring_bitwise(self, monkeypatch):
        """Scored with one metric call per (method, metric), the report
        holds the bytes of the per-scene reference: each method's
        estimate scored by its own scalar call, and the ideal row as
        ``fusion.ideal_combine``'s pick, scored again."""
        monkeypatch.setattr(bench, "train_member", built_member)
        dataset = gen_dataset(
            GenConfig(n_scenes=7, width=8, height=8, pool="full", base_seed=305)
        )
        config = tiny_config(folds=3)
        report = crossval(dataset, config)

        names = [spec.name for spec in config.trainables]
        errors = {key: [] for key in report.errors}
        mus = {name: [] for name in names}
        for fold, span in enumerate(folds(len(dataset.scenes), config.folds)):
            nets = [
                built_member(spec, [], derive_seed("fold-init", config.base_seed, fold, name), 0)[0]
                for name, spec in zip(names, config.trainables)
            ]
            for i in span:
                scene = dataset.scenes[i]
                members = fusion.ensemble_estimates(
                    nets, scene.pixels, config.nu, derive_seed("sample-mc", config.base_seed, i)
                )
                estimates = {
                    "grey-world": baselines.grey_world(scene.pixels),
                    "shades-of-grey": baselines.shades_of_grey(scene.pixels, config.sog_p),
                    **{name: est.mean for name, est in zip(names, members)},
                    **{f"mcde-{v}": fusion.fuse(members, v).fused for v in fusion.VARIANTS},
                }
                for metric, fn in METRICS.items():
                    means = [est.mean for est in members]
                    estimates["ideal"] = fusion.ideal_combine(means, scene.label, metric)
                    for method, est in estimates.items():
                        errors[(method, metric)].append(fn(scene.label, est))
                for name, est in zip(names, members):
                    mus[name].append(est.mu)

        assert set(errors) == {(m, metric) for m in methods(report) for metric in METRICS}
        for key, values in errors.items():
            assert report.errors[key].tobytes() == np.array(values).tobytes(), key
        for name, values in mus.items():
            assert report.uncertainties[name].tobytes() == np.array(values).tobytes()

    def test_each_variant_fuses_a_fold_in_one_call(self, monkeypatch):
        """No per-scene ``fuse``: each fold makes one ``combine`` call per
        variant, over all of its scenes."""
        monkeypatch.setattr(bench, "train_member", built_member)
        monkeypatch.setattr(fusion, "fuse", None)
        combine, calls = fusion.combine, []

        def counted(means, mus, variant):
            calls.append((np.shape(means), variant))
            return combine(means, mus, variant)

        monkeypatch.setattr(fusion, "combine", counted)
        dataset = gen_dataset(GenConfig(n_scenes=7, width=8, height=8, pool="full", base_seed=306))
        crossval(dataset, tiny_config(folds=3))
        assert calls == [((n, 2, 3), v) for n in (3, 2, 2) for v in fusion.VARIANTS]

    def test_metric_refusal_names_its_sample_and_method(self, monkeypatch):
        """A member mean with a component below ``DIV_EPS`` has no
        reproduction error.  Scoring a whole fold at once, the run still
        stops naming the fold, the sample and the method."""
        monkeypatch.setattr(bench, "train_member", built_member)
        member_estimates = bench._member_estimates

        def stand_in(net, k, scenes, sample_ids, nu, base_seed):
            means, mus = member_estimates(net, k, scenes, sample_ids, nu, base_seed)
            if k == 1 and 4 in sample_ids:
                means[list(sample_ids).index(4)] = normalize([1e-13, 0.6, 0.8])
            return means, mus

        monkeypatch.setattr(bench, "_member_estimates", stand_in)
        with pytest.raises(
            RuntimeError,
            match=r"^fold 1 failed: sample 4: m-net: estimate components must exceed 1e-12 ",
        ):
            crossval(grey_scene_dataset(n=6), tiny_config())

    def test_fusion_refusal_names_its_sample_and_variant(self, monkeypatch):
        """Every member of scene 4 certain (mu = 0) of a mean with azimuth
        exactly pi/2 fuses to a direction ``from_spherical`` refuses.
        Fusing a whole fold at once, the run still stops naming the fold,
        the sample and the variant."""
        monkeypatch.setattr(bench, "train_member", built_member)
        member_estimates = bench._member_estimates
        edge = normalize([1e-300, 0.6, 0.8])

        def stand_in(net, k, scenes, sample_ids, nu, base_seed):
            means, mus = member_estimates(net, k, scenes, sample_ids, nu, base_seed)
            if 4 in sample_ids:
                at = list(sample_ids).index(4)
                means[at], mus[at] = edge, 0.0
            return means, mus

        monkeypatch.setattr(bench, "_member_estimates", stand_in)
        with pytest.raises(
            RuntimeError,
            match=r"^fold 1 failed: sample 4: mcde-linear: phi must lie strictly inside \(0, pi/2\)$",
        ):
            crossval(grey_scene_dataset(n=6), tiny_config())

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

    def test_loss_traces_per_fold_and_member(self, tmp_path):
        """One trace of ``epochs`` losses per fold and member, the same
        for one worker and two; no report file holds them."""
        dataset = gen_dataset(GenConfig(n_scenes=6, width=8, height=8, base_seed=306))
        one = crossval(dataset, tiny_config())
        two = crossval(dataset, tiny_config(workers=2))
        assert list(one.loss_traces) == [(0, "g-net"), (0, "m-net"), (1, "g-net"), (1, "m-net")]
        for trace in one.loss_traces.values():
            assert len(trace) == 2 and np.all(np.isfinite(trace))
        assert one.loss_traces == two.loss_traces
        write_report(one, tmp_path / "one")
        one.loss_traces = {}
        write_report(one, tmp_path / "none")
        for path in (tmp_path / "one").iterdir():
            assert path.read_bytes() == (tmp_path / "none" / path.name).read_bytes()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers inherit the dataset",
    )
    def test_fold_workers_inherit_the_dataset(self):
        """No fold task carries the dataset: scenes that refuse to be
        pickled still run in two fold workers, with the same report."""

        class Unpicklable(Scene):
            def __reduce__(self):
                raise TypeError("this scene does not travel")

        scenes = gen_dataset(GenConfig(n_scenes=6, width=8, height=8, base_seed=305)).scenes
        dataset = Dataset(
            scenes=[Unpicklable(s.pixels, s.label) for s in scenes],
            config=GenConfig(n_scenes=6, width=8, height=8, base_seed=305),
        )
        one = crossval(dataset, tiny_config())
        two = crossval(dataset, tiny_config(workers=2))
        assert one.errors.keys() == two.errors.keys()
        for key in one.errors:
            np.testing.assert_array_equal(one.errors[key], two.errors[key])
        for name in one.uncertainties:
            np.testing.assert_array_equal(one.uncertainties[name], two.uncertainties[name])

    @pytest.mark.parametrize(
        "workers,started",
        [(1, []), (2, [2]), (5000, [3]),
         pytest.param(None, [len(bench.SCENARIO_MEMBERS)], id="scenario")],
    )
    def test_at_most_one_worker_per_fold(self, workers, started, monkeypatch):
        """A recording stand-in for the pool: 5000 workers for 3 folds
        start 3 processes, and one worker starts none.  The scenario
        (``workers`` None), which has no worker count, starts one pool of
        one worker per member.  Each report equals the one run without
        the stand-in."""
        dataset = grey_scene_dataset(n=6)
        scenario = ScenarioConfig(
            seed=5, eval_per_band=2, train_per_band=4, nu=2, epochs=1, channels=4
        )

        def run(**kw):
            if workers is None:
                return band_shift_scenario(scenario)
            return crossval(dataset, tiny_config(folds=3, trainables=(), **kw))

        reference = run()
        pools = in_process_pool(monkeypatch)
        report = run(workers=workers)
        assert pools == started
        assert report.errors.keys() == reference.errors.keys()
        for key in reference.errors:
            assert report.errors[key].tobytes() == reference.errors[key].tobytes()
        for name in reference.uncertainties:
            assert report.uncertainties[name].tobytes() == reference.uncertainties[name].tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_runs_the_fold_function_it_finds_at_call_time(self, workers, monkeypatch):
        """``crossval`` looks ``bench._run_fold`` up when it is called and
        runs it once per fold, in fold order, as ``perfbench/tracer.py``
        relies on when it wraps that attribute.  The pool is a recording
        stand-in, so its calls are seen here."""
        run_fold, seen = bench._run_fold, []

        def recording(dataset, config, spans, fold_index):
            seen.append(fold_index)
            return run_fold(dataset, config, spans, fold_index)

        in_process_pool(monkeypatch)
        monkeypatch.setattr(bench, "_run_fold", recording)
        crossval(grey_scene_dataset(n=6), tiny_config(folds=3, workers=workers, trainables=()))
        assert seen == [0, 1, 2]

    @pytest.mark.parametrize(
        "value,error,message",
        [(1, ValueError, "at least 2, got 1"), (-2, ValueError, "at least 2, got -2"),
         ("3", TypeError, "an integer, got '3'"), (2.5, TypeError, "an integer, got 2.5"),
         (True, TypeError, "an integer, got True")],
    )
    def test_bad_folds_fail_at_construction(self, value, error, message):
        with pytest.raises(error, match=f"^folds must be {message}$"):
            BenchConfig(folds=value)

    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_non_integer_workers_fail_at_construction(self, value):
        with pytest.raises(TypeError, match=f"^workers must be an integer, got {value!r}$"):
            BenchConfig(workers=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_workers_below_one_fail_at_construction(self, value):
        with pytest.raises(ValueError, match=f"^workers must be at least 1, got {value}$"):
            BenchConfig(workers=value)

    @pytest.mark.parametrize(
        "value,error",
        [(2.5, TypeError), (-3, ValueError), (2**64, ValueError), ("x", TypeError),
         (True, TypeError)],
    )
    @pytest.mark.parametrize(
        "make,name",
        [(lambda v: BenchConfig(base_seed=v), "base_seed"),
         (lambda v: ScenarioConfig(seed=v), "seed")],
        ids=["bench", "scenario"],
    )
    def test_bad_seed_fails_at_construction(self, make, name, value, error):
        """In the range a PassSeed takes; ``derive_seed`` would hash a
        float, or the string "7" as the integer 7."""
        with pytest.raises(error, match=f"^{name} must"):
            make(value)

    @pytest.mark.parametrize("value", [0.5, math.nan])
    def test_bad_sog_p_fails_at_construction(self, value):
        """Caught while the config is built, not after fold 0's members
        have trained."""
        with pytest.raises(ValueError, match="^sog_p must be finite and at least 1.0, got "):
            BenchConfig(sog_p=value)

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_folds_fail_before_any_training(self, value, monkeypatch):
        trained = []
        monkeypatch.setattr(bench, "train_member", lambda spec, *args, **kw: trained.append(spec))
        with pytest.raises(TypeError, match=f"^folds must be an integer, got {value!r}$"):
            crossval(grey_scene_dataset(n=6), tiny_config(folds=value))
        assert trained == []

    def test_degenerate_scene_fails_naming_its_sample(self):
        """One scene without a grey-world estimate stops the run, and
        the error names the fold and the sample."""
        dataset = grey_scene_dataset(n=6)
        dataset.scenes[4].pixels[..., 1] = 0.0
        with pytest.raises(RuntimeError, match=r"^fold 1 failed: sample 4: illuminant"):
            crossval(dataset, tiny_config(trainables=()))

    def test_label_that_is_no_illuminant_fails_its_fold(self):
        """Scene 5 is named by its index in the dataset, before any fold runs."""
        dataset = grey_scene_dataset(n=6)
        dataset.scenes[5].label = np.ones(3)
        with pytest.raises(ValueError, match=r"^scene 5: label must have unit norm, got 1\.73"):
            crossval(dataset, tiny_config())

    def test_negative_pixel_is_named_by_its_dataset_index(self, monkeypatch):
        """Scene 4 is the second training scene of fold 0, and no fold
        starts: the check comes before any worker."""
        dataset = grey_scene_dataset(n=6)
        dataset.scenes[4].pixels[1, 2, 0] = -1.0
        monkeypatch.setattr(bench, "_run_fold", None)
        with pytest.raises(
            ValueError, match="^scene 4 holds a pixel that is negative, infinite or NaN$"
        ):
            crossval(dataset, tiny_config())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_member_is_named_with_its_fold(self):
        """g-net trains; m-net, at a learning rate of 1e30, does not."""
        g_net, m_net = tiny_config().trainables
        m_net = bench.fill(TrainableSpec, m_net, learning_rate=1e30)
        with pytest.raises(
            RuntimeError, match="^fold 0 failed: m-net: training diverged at epoch "
        ):
            crossval(grey_scene_dataset(n=6), tiny_config(trainables=(g_net, m_net)))

    @pytest.mark.parametrize("make", [BenchConfig, ScenarioConfig], ids=["bench", "scenario"])
    def test_too_many_passes_fail_at_construction(self, make):
        with pytest.raises(ValueError, match="nu must lie in"):
            make(nu=MAX_NU + 1)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(arch="x-net"),
            dict(channels=0),
            dict(dropout_rate=1.0),
            dict(epochs=-1),
            dict(learning_rate=float("nan")),
            dict(batch_size=0),
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_bad_member_fails_before_any_training(self, bad, monkeypatch):
        """A member listed after a good one still fails before the good
        one trains: the spec checks itself when it is built."""
        trained = []
        monkeypatch.setattr(bench, "train_member", lambda spec, *args, **kw: trained.append(spec))
        dataset = gen_dataset(GenConfig(n_scenes=4, width=8, height=8, base_seed=302))
        good = TrainableSpec(name="g-net", arch="g-net", channels=4, epochs=1)
        with pytest.raises(ValueError):
            odd = TrainableSpec(name="odd", **{"arch": "m-net", **bad})
            crossval(dataset, tiny_config(trainables=(good, odd)))
        assert trained == []

    @pytest.mark.parametrize(
        "names",
        [
            ("g-net", "g-net"),
            ("g-net", "grey-world"),
            ("shades-of-grey",),
            ("ideal",),
            *((f"mcde-{variant}",) for variant in fusion.VARIANTS),
        ],
        ids="-".join,
    )
    def test_member_names_must_not_collide(self, names):
        """A member may not share its name with another member or with a
        report row, whose errors it would silently replace."""
        specs = tuple(TrainableSpec(name=name, arch="g-net") for name in names)
        with pytest.raises(ValueError, match="member name"):
            BenchConfig(trainables=specs)

    @pytest.mark.parametrize(
        "name",
        ["", "g,net", 'g"net', "g\nnet", "g\rnet", "g\x1fnet", 7],
        ids=["empty", "comma", "quote", "newline", "return", "unit-separator", "integer"],
    )
    def test_member_name_must_be_a_plain_csv_field(self, name):
        """The report's CSV files hold the name unquoted, so a name that
        would split or merge their rows is refused, and quoted in the
        error."""
        BenchConfig(trainables=(TrainableSpec(name="g net", arch="g-net"),))
        spec = TrainableSpec(name=name, arch="g-net")
        with pytest.raises(ValueError, match=re.escape(f"member name {name!r} must be")):
            BenchConfig(trainables=(spec,))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(eval_per_band=0),
            dict(train_per_band=0),
            dict(channels=0),
            dict(epochs=-1),
            dict(dropout_rate=1.0),
            dict(batch_size=0),
            dict(sog_p=0.5),
            dict(sog_p=math.nan),
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_bad_scenario_fails_at_construction(self, bad):
        with pytest.raises(ValueError):
            ScenarioConfig(**bad)

    @pytest.mark.parametrize(
        "make",
        [lambda v: TrainableSpec(name="g-net", arch="g-net", channels=v),
         lambda v: ScenarioConfig(channels=v)],
        ids=["TrainableSpec", "ScenarioConfig"],
    )
    def test_channels_beyond_the_bound_fail_at_construction(self, make):
        make(MAX_CHANNELS)
        with pytest.raises(ValueError, match=r"^channels must lie in \[1, 1024\], got 1025$"):
            make(MAX_CHANNELS + 1)

    @pytest.mark.parametrize("name", ["eval_per_band", "train_per_band"])
    def test_scene_count_beyond_the_pixel_budget_fails_at_construction(self, name):
        """A band's scenes are one dataset of GenConfig's default size, so
        the count is refused before any worker forks."""
        most = MAX_PIXELS // (16 * 16)
        assert getattr(ScenarioConfig(**{name: most}), name) == most
        with pytest.raises(
            ValueError, match=rf"^{name} must lie in \[1, {most}\], got {most + 1}$"
        ):
            ScenarioConfig(**{name: most + 1})

    @pytest.mark.parametrize("name", ["eval_per_band", "train_per_band"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_scene_count_fails_at_construction(self, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("name", ["epochs", "channels", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_member_field_fails_at_construction(self, name, value):
        """Caught while the config is built, not in the member workers
        (which died in a raw TypeError), nor silently trained on."""
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            ScenarioConfig(**{name: value})
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            TrainableSpec(name="g-net", arch="g-net", **{name: value})

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
            (i, name) for i in range(8) for name in tiny_report.uncertainties
        ]
        for name in tiny_report.uncertainties:
            np.testing.assert_array_equal(
                np.array([float(row["mu"]) for row in rows if row["method"] == name]),
                tiny_report.uncertainties[name],
            )

    def test_rows_follow_report_order(self, tiny_report, tmp_path):
        """summary.csv lists the baselines, the members, the fusion rows
        and the ideal row, each under every metric in turn; per_sample.csv
        lists that sequence once per sample, sample by sample."""
        write_report(tiny_report, tmp_path / "report")
        order = [
            (method, metric)
            for method in ("grey-world", "shades-of-grey", "g-net", "m-net",
                           "mcde-linear", "mcde-log", "ideal")
            for metric in METRICS
        ]
        with open(tmp_path / "report" / "summary.csv", newline="") as fh:
            assert [(row["method"], row["metric"]) for row in csv.DictReader(fh)] == order
        with open(tmp_path / "report" / "per_sample.csv", newline="") as fh:
            rows = [(int(row["sample"]), row["method"], row["metric"])
                    for row in csv.DictReader(fh)]
        assert rows == [(i, *key) for i in range(8) for key in order]


class TestBandShiftScenario:
    def test_micro_scenario_runs_and_echoes_config(self):
        config = ScenarioConfig(
            seed=5, eval_per_band=3, train_per_band=4, nu=2, epochs=1, channels=4
        )
        report = band_shift_scenario(config)
        assert report.config["protocol"] == "band-shift-scenario"
        assert report.config["seed"] == 5
        assert report.config["members"] == [["g-net", "band-a"], ["m-net", "band-b"]]
        for gone in ("width", "height", "n_patches", "noise_std"):
            assert gone not in report.config
        for values in (*report.errors.values(), *report.uncertainties.values()):
            assert values.shape == (6,)
        assert tuple(report.uncertainties) == ("g-net", "m-net")
        assert methods(report) == (
            "grey-world",
            "shades-of-grey",
            "g-net",
            "m-net",
            "mcde-linear",
            "mcde-log",
            "ideal",
        )
        keys = {(m, metric) for m in methods(report) for metric in ("recovery", "reproduction")}
        assert set(report.errors) == keys
        for key, errors in report.errors.items():
            assert errors.shape == (6,)
        for metric in ("recovery", "reproduction"):
            members = np.stack([report.errors[(name, metric)] for name in report.uncertainties])
            np.testing.assert_array_equal(report.errors[("ideal", metric)], members.min(axis=0))
        for name in report.uncertainties:
            assert report.uncertainties[name].shape == (6,)

    def test_members_match_in_process_training_bitwise(self, monkeypatch):
        """The loss traces of the members trained in worker processes
        equal, byte for byte, ``train_member`` run here on the same scenes
        and seeds, and the report's errors and uncertainties equal
        ``_evaluate_samples`` of those members' ``_member_estimates``.
        The reference spells out the member table and generates scenes
        at ``GenConfig``'s defaults."""
        config = ScenarioConfig(
            seed=6, eval_per_band=3, train_per_band=6, nu=2, epochs=2, channels=4
        )
        calls = []
        evaluate = bench._evaluate_samples

        def recording(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(bench, "_evaluate_samples", recording)
        report = band_shift_scenario(config)
        ((names, eval_scenes, sample_ids, _, sog_p),) = calls

        estimates = []
        for k, (name, band) in enumerate((("g-net", "band-a"), ("m-net", "band-b"))):
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
                    pool=band,
                    base_seed=derive_seed("scenario-train", config.seed, band),
                )
            ).scenes
            net, trace = bench.train_member(
                spec,
                scenes,
                init_seed=derive_seed("scenario-init", config.seed, name),
                train_seed=derive_seed("scenario-train-loop", config.seed, name),
            )
            assert report.loss_traces[name] == trace
            mc_seed = derive_seed("scenario-mc", config.seed)
            estimates.append(
                bench._member_estimates(net, k, eval_scenes, sample_ids, config.nu, mc_seed)
            )

        assert names == ["g-net", "m-net"]
        errors, uncertainties = evaluate(names, eval_scenes, sample_ids, estimates, sog_p)
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
            batch_size=2, learning_rate=1e30,
        )
        with pytest.raises(RuntimeError) as info:
            band_shift_scenario(config)
        assert type(info.value) is RuntimeError
        assert str(info.value).startswith("member g-net failed: training diverged at epoch 0: ")

    def test_evaluation_scenes_are_generated_in_the_calling_process(self, monkeypatch):
        """A recorder in place of ``gen_dataset``, as perfbench's
        grey-world check installs one, sees the evaluation scenes of each
        band in member order; the workers' training scenes stay in the
        workers."""
        made = []

        def recording(config):
            made.append(config)
            return gen_dataset(config)

        monkeypatch.setattr(bench, "gen_dataset", recording)
        config = ScenarioConfig(
            seed=5, eval_per_band=3, train_per_band=4, nu=2, epochs=1, channels=4
        )
        band_shift_scenario(config)
        assert [(c.pool, c.n_scenes) for c in made] == [
            (band, config.eval_per_band) for _, band in bench.SCENARIO_MEMBERS
        ]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers inherit the stand-in",
    )
    def test_member_failing_in_its_evaluation_is_named(self, monkeypatch):
        """A member whose MC passes fail in its worker reaches the caller
        as a plain RuntimeError naming it and the first sample."""

        def failing(net, pixels, nu, base_seeds):
            raise NumericError("non-finite activations after layer 0 (conv3x3)")

        monkeypatch.setattr(bench, "mc_estimates", failing)
        config = ScenarioConfig(
            seed=5, eval_per_band=2, train_per_band=4, nu=2, epochs=1, channels=4
        )
        with pytest.raises(RuntimeError) as info:
            band_shift_scenario(config)
        assert type(info.value) is RuntimeError
        assert str(info.value) == (
            "member g-net failed: sample 0: non-finite activations after layer 0 (conv3x3)"
        )

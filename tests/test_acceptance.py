"""Release gate: one test per acceptance criterion.

Each test pins the tolerance it must hold and the runtime budget where
one is part of the contract.  The terminal summary (see conftest.py)
prints one PASS/FAIL line per criterion.
"""

import csv
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mcde import cli
from mcde.bench import ErrorStats, BenchConfig, TrainableSpec, band_shift_scenario, crossval, stats, write_report
from mcde.color import (
    NEUTRAL,
    from_spherical,
    recovery_error,
    reproduction_error,
    to_spherical,
)
from mcde.datagen import GenConfig, gen_dataset
from mcde.fusion import MCEstimate, fuse, raw_confidence
from mcde.mc import mc_estimate
from mcde.nn import Mode, PassSeed, build
from mcde.nn.layers import (
    Affine,
    Conv3x3,
    Dropout,
    MaxPool,
    MeanPool,
    PositiveHead,
    Relu,
)

from gradcheck import check_layer, check_network

SRC = Path(__file__).resolve().parents[1] / "src"


def random_positive_units(rng, n):
    v = np.abs(rng.normal(size=(n, 3))) + 1e-3
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def stub_estimate(mean, mu):
    mean = np.asarray(mean, dtype=np.float64)
    mean = mean / np.linalg.norm(mean)
    sigma = np.full(3, mu ** (1.0 / 3.0)) if mu > 0 else np.zeros(3)
    return MCEstimate(mean=mean, sigma=sigma, mu=float(mu))


class StubNet:
    """Scripted network: pass k returns outputs[k mod len(outputs)]."""

    def __init__(self, outputs):
        self.outputs = [np.asarray(o, dtype=np.float64) for o in outputs]

    def forward(self, pixels, mode, seed=None):
        if mode is Mode.DETERMINISTIC:
            return self.outputs[0]
        return self.outputs[seed.pass_index % len(self.outputs)]

    def forward_passes(self, pixels, seed, count):
        return np.stack([
            self.forward(pixels, Mode.MC, PassSeed(seed.base_seed, seed.pass_index + k))
            for k in range(count)
        ])


@pytest.fixture(scope="module")
def scenario_report():
    start = time.perf_counter()
    report = band_shift_scenario()
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def small_report():
    dataset = gen_dataset(GenConfig(n_scenes=8, width=8, height=8, base_seed=901))
    trainables = tuple(
        TrainableSpec(name=arch, arch=arch, channels=4, epochs=2, batch_size=4)
        for arch in ("g-net", "m-net")
    )
    config = BenchConfig(folds=2, nu=3, base_seed=902, trainables=trainables)
    return crossval(dataset, config)


def test_metric_correctness():
    """Angular error metrics match closed-form oracles to 1e-9 degrees
    on 1000 strictly positive unit pairs, and the neutral-estimate
    identity holds exactly; runtime under 1 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(910)
    gts = random_positive_units(rng, 1000)
    ests = random_positive_units(rng, 1000)
    for gt, est in zip(gts, ests):
        dot = sum(float(a) * float(b) for a, b in zip(gt, est))
        norm = math.sqrt(sum(float(a) ** 2 for a in gt)) * math.sqrt(
            sum(float(b) ** 2 for b in est)
        )
        want_recovery = math.degrees(math.acos(max(-1.0, min(1.0, dot / norm))))
        assert abs(recovery_error(gt, est) - want_recovery) <= 1e-9

        ratio = [float(a) / float(b) for a, b in zip(gt, est)]
        rnorm = math.sqrt(sum(r * r for r in ratio))
        cos = sum(ratio) / (rnorm * math.sqrt(3.0))
        want_reproduction = math.degrees(math.acos(max(-1.0, min(1.0, cos))))
        assert abs(reproduction_error(gt, est) - want_reproduction) <= 1e-9

        assert reproduction_error(gt, NEUTRAL) == recovery_error(gt, NEUTRAL)
    assert time.perf_counter() - start < 1.0


def test_spherical_roundtrip():
    """to_spherical and from_spherical invert each other within 1e-9
    on 1e5 random positive unit vectors; runtime under 1 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(911)
    vectors = random_positive_units(rng, 100_000)
    back = from_spherical(to_spherical(vectors))
    assert np.max(np.abs(back - vectors)) <= 1e-9
    assert time.perf_counter() - start < 1.0


def test_gradient_check():
    """Every layer kind and both stock architectures pass a central
    finite-difference gradient check at relative tolerance 1e-4;
    runtime under 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(912)
    fmap = rng.normal(size=(5, 6, 4))
    vec = rng.normal(size=4)

    conv = Conv3x3(4, 3)
    conv.init(rng)
    check_layer(conv, fmap)
    for affine_input in (vec, fmap):
        affine = Affine(4, 3)
        affine.init(rng)
        check_layer(affine, affine_input)
    check_layer(Relu(), fmap)
    check_layer(MeanPool(), fmap)
    check_layer(MaxPool(), fmap)
    check_layer(PositiveHead(), vec)
    check_layer(Dropout(0.4), fmap, keep=np.random.default_rng(913).random(4) >= 0.4)
    check_layer(Dropout(0.4), vec, keep=np.random.default_rng(914).random(4) >= 0.4)

    pixels = np.abs(rng.normal(size=(6, 6, 3))) + 0.05
    gt = random_positive_units(rng, 1)[0]
    for arch in ("g-net", "m-net"):
        net = build(arch, seed=915, channels=3, dropout_rate=0.35)
        check_network(net, pixels, gt, PassSeed(916, 0))
    assert time.perf_counter() - start < 30.0


def test_mc_reduction():
    """mc_estimate equals a brute-force per-channel mean and population
    standard deviation over scripted stubs to 1e-12, and a rate-0
    network yields exactly zero spread."""
    rng = np.random.default_rng(917)
    outputs = random_positive_units(rng, 7)
    net = StubNet(outputs)
    nu = 30
    est = mc_estimate(net, np.zeros((4, 4, 3)), nu=nu, base_seed=0)

    passes = np.stack([outputs[k % 7] for k in range(nu)])
    raw_mean = passes.mean(axis=0)
    want_mean = raw_mean / np.linalg.norm(raw_mean)
    want_sigma = np.sqrt(((passes - raw_mean) ** 2).mean(axis=0))
    np.testing.assert_allclose(est.mean, want_mean, atol=1e-12, rtol=0.0)
    np.testing.assert_allclose(est.sigma, want_sigma, atol=1e-12, rtol=0.0)
    np.testing.assert_allclose(
        est.mu, float(np.prod(want_sigma)), atol=1e-12, rtol=0.0
    )

    pixels = np.abs(rng.normal(size=(6, 6, 3))) + 0.05
    dry = build("g-net", seed=918, channels=4, dropout_rate=0.0)
    est = mc_estimate(dry, pixels, nu=10, base_seed=1)
    np.testing.assert_array_equal(est.sigma, np.zeros(3))
    assert est.mu == 0.0


def test_ensemble_invariants():
    """Simplex weights, permutation equivariance, betweenness, certainty
    dominance at 1 - 1e-4, and the two-member 40/50 + 50/60 -> 45/55
    hand example at 1e-9."""
    rng = np.random.default_rng(919)

    for variant in ("linear", "log"):
        for _ in range(50):
            k = int(rng.integers(1, 6))
            ests = [
                stub_estimate(random_positive_units(rng, 1)[0], rng.uniform(1e-9, 1e-2))
                for _ in range(k)
            ]
            result = fuse(ests, variant=variant)
            assert abs(result.weights.sum() - 1.0) <= 1e-12
            assert np.all(result.weights >= 0.0)

            perm = rng.permutation(k)
            permuted = fuse([ests[i] for i in perm], variant=variant)
            np.testing.assert_allclose(
                permuted.fused, result.fused, atol=1e-12, rtol=0.0
            )
            np.testing.assert_allclose(
                permuted.weights, result.weights[perm], atol=1e-12, rtol=0.0
            )

        for _ in range(25):
            pair = [
                stub_estimate(random_positive_units(rng, 1)[0], rng.uniform(1e-6, 1e-2))
                for _ in range(2)
            ]
            fused = fuse(pair, variant=variant).fused
            angles = [to_spherical(e.mean) for e in pair]
            got = to_spherical(fused)
            assert min(a.phi for a in angles) - 1e-12 <= got.phi
            assert got.phi <= max(a.phi for a in angles) + 1e-12
            assert min(a.varphi for a in angles) - 1e-12 <= got.varphi
            assert got.varphi <= max(a.varphi for a in angles) + 1e-12

    for variant, competitor_mu in (("linear", 0.1), ("log", 1.0)):
        certain = stub_estimate(from_spherical(np.radians((30.0, 40.0))), 0.0)
        vague = stub_estimate(from_spherical(np.radians((80.0, 85.0))), competitor_mu)
        result = fuse([certain, vague], variant=variant)
        assert result.weights[0] >= 1.0 - 1e-4

    member_a = stub_estimate(from_spherical(np.radians((40.0, 50.0))), 1e-3)
    member_b = stub_estimate(from_spherical(np.radians((50.0, 60.0))), 1e-3)
    for variant in ("linear", "log"):
        result = fuse([member_a, member_b], variant=variant)
        np.testing.assert_allclose(result.weights, [0.5, 0.5], atol=1e-12, rtol=0.0)
        got = to_spherical(result.fused)
        np.testing.assert_allclose(
            np.degrees((got.phi, got.varphi)), (45.0, 55.0), atol=1e-9, rtol=0.0
        )
        np.testing.assert_allclose(
            result.fused, from_spherical(np.radians((45.0, 55.0))), atol=1e-9, rtol=0.0
        )


def test_oracle_dominance(small_report, scenario_report):
    """In every benchmark report, each ideal-combination statistic is
    <= the matching statistic of every single model, for both error
    metrics (exact, because per-sample minima dominate)."""
    for report in (small_report, scenario_report[0]):
        assert report.uncertainties, "report must contain trained models"
        for metric in ("recovery", "reproduction"):
            ideal = stats(report.errors[("ideal", metric)])
            for name in report.uncertainties:
                single = stats(report.errors[(name, metric)])
                for field in ErrorStats.__dataclass_fields__:
                    assert getattr(ideal, field) <= getattr(single, field), (
                        metric,
                        name,
                        field,
                    )


def test_qualitative_band_shift(scenario_report):
    """On the shipped two-band scenario (seed 7, 400 evaluation scenes,
    30 passes per model) the log-variant fusion has mean recovery error
    <= the best single model and worst-25% mean <= the best single
    model's worst-25% + 0.2 degrees, in under 10 minutes."""
    report, elapsed = scenario_report
    assert report.config["seed"] == 7
    assert report.config["nu"] == 30
    for values in (*report.errors.values(), *report.uncertainties.values()):
        assert values.shape == (400,)

    fused = stats(report.errors[("mcde-log", "recovery")])
    member_means = [
        stats(report.errors[(name, "recovery")]).mean for name in report.uncertainties
    ]
    member_worst = [
        stats(report.errors[(name, "recovery")]).worst25_mean
        for name in report.uncertainties
    ]
    assert fused.mean <= min(member_means)
    assert fused.worst25_mean <= min(member_worst) + 0.2
    assert elapsed < 600.0


def test_cmd_bench_determinism(tmp_path):
    """The bench command writes byte-identical report directories on
    reruns, including when --workers differs."""
    data = tmp_path / "data"
    assert cli.main([
        "gen-data", "--scenes", "6", "--width", "8", "--height", "8",
        "--seed", "21", "--out", str(data),
    ]) == 0

    flags = ["--data", str(data), "--k", "2", "--nu", "2", "--epochs", "1",
             "--channels", "4", "--seed", "22"]
    trees = {}
    for name, extra in (("a", []), ("b", []), ("c", ["--workers", "3"])):
        out = tmp_path / name
        assert cli.main(["bench", *flags, "--out", str(out), *extra]) == 0
        trees[name] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }
    assert trees["a"] == trees["b"]
    assert trees["a"] == trees["c"]


def test_cmd_bench_blas_threads(tmp_path):
    """The bench command writes the same bytes with one BLAS thread and
    with two.  Each run is a fresh interpreter, because OpenBLAS reads
    its thread count when numpy loads; the scenes are 64x64 so that the
    products are large enough for OpenBLAS to split across threads."""
    data = tmp_path / "data"
    assert cli.main([
        "gen-data", "--scenes", "8", "--width", "64", "--height", "64",
        "--seed", "23", "--out", str(data),
    ]) == 0

    trees = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "mcde.cli", "bench", "--data", str(data),
             "--out", str(out), "--k", "2", "--nu", "3", "--epochs", "1"],
            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        trees[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(trees["1"]) == 4
    assert trees["1"] == trees["2"]


def test_stats_oracle(small_report, tmp_path):
    """stats([1..8]) equals the frozen oracle tuple under the documented
    quantile rule, and summary.csv is recomputable from per_sample.csv
    to 1e-12."""
    assert stats(range(1, 9)) == ErrorStats(
        best25_mean=1.5,
        mean=4.5,
        median=4.5,
        trimean=4.5,
        worst25_mean=7.5,
        worst10_mean=8.0,
        worst5_mean=8.0,
    )

    write_report(small_report, tmp_path / "report")
    per_sample: dict = {}
    with open(tmp_path / "report" / "per_sample.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            per_sample.setdefault((row["method"], row["metric"]), []).append(
                float(row["error_deg"])
            )
    with open(tmp_path / "report" / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(per_sample)
    for row in rows:
        recomputed = stats(per_sample[(row["method"], row["metric"])])
        for field in ErrorStats.__dataclass_fields__:
            assert abs(float(row[field]) - getattr(recomputed, field)) <= 1e-12

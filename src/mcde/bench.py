"""Benchmark protocols, error statistics, and report files.

Reports are deterministic: identical (dataset, config, seeds) produce
byte-identical files, regardless of worker count.  All randomness is
derived from the run's base seed, and per-sample MC seeds are keyed by
the sample's global index rather than by visit order.

Report directory layout:

    config.json     fully resolved run configuration (everything
                    needed to reproduce; output paths and worker
                    counts deliberately excluded, they do not affect
                    results)
    summary.csv     method, metric, and the seven error statistics
    per_sample.csv  sample, method, metric, error_deg
    uncertainty_per_sample.csv
                    sample, method, mu: each trained member's raw MC
                    uncertainty per sample (header only when there
                    are no trained members)

Methods are the grey-world and shades-of-grey baselines, each trained
member, both fusion variants, and the ideal row: ``fusion.ideal_combine``
applied per metric, i.e. the member estimate with the lowest error under
that metric.  Every method is scored with every metric in ``METRICS``.

CSV files are UTF-8, comma-separated, one header row, full-precision
(17 significant digit) decimals.  Human-readable renderings round to
one decimal; the files never do.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from mcde import baselines, fusion
from mcde.color import METRICS
from mcde.datagen import Dataset, GenConfig, folds, gen_dataset
from mcde.nn.archs import build
from mcde.nn.training import TrainConfig, train
from mcde.seeding import derive_seed

__all__ = [
    "METRICS",
    "ErrorStats",
    "stats",
    "TrainableSpec",
    "BenchConfig",
    "BenchReport",
    "crossval",
    "write_report",
    "ScenarioConfig",
    "band_shift_scenario",
]

@dataclass(frozen=True)
class ErrorStats:
    """The seven summary statistics used for angular error tables."""

    best25_mean: float
    mean: float
    median: float
    trimean: float
    worst25_mean: float
    worst10_mean: float
    worst5_mean: float


def _tail_count(n: int, num: int, den: int) -> int:
    # ceil(n * num / den) in exact integer arithmetic.
    return -((-n * num) // den)


def stats(errors) -> ErrorStats:
    """Summary statistics of an error sample.

    Quantiles use linear interpolation between order statistics; the
    best/worst tail means average the ceil(q * n) smallest/largest
    values; the trimean is (Q1 + 2 * median + Q3) / 4.
    """
    arr = np.sort(np.asarray(errors, dtype=np.float64).ravel())
    n = arr.size
    if n == 0:
        raise ValueError("cannot summarize an empty error sample")
    q1, q2, q3 = np.quantile(arr, [0.25, 0.5, 0.75])
    c25 = _tail_count(n, 1, 4)
    c10 = _tail_count(n, 1, 10)
    c5 = _tail_count(n, 1, 20)
    return ErrorStats(
        best25_mean=float(arr[:c25].mean()),
        mean=float(arr.mean()),
        median=float(q2),
        trimean=float((q1 + 2.0 * q2 + q3) / 4.0),
        worst25_mean=float(arr[-c25:].mean()),
        worst10_mean=float(arr[-c10:].mean()),
        worst5_mean=float(arr[-c5:].mean()),
    )


@dataclass(frozen=True)
class TrainableSpec:
    """One trainable ensemble member and its training hyperparameters."""

    name: str
    arch: str
    channels: int = 12
    dropout_rate: float = 0.3
    epochs: int = 30
    learning_rate: float = 0.05
    batch_size: int = 8


DEFAULT_TRAINABLES = (
    TrainableSpec(name="g-net", arch="g-net"),
    TrainableSpec(name="m-net", arch="m-net"),
)


@dataclass(frozen=True)
class BenchConfig:
    folds: int = 10
    nu: int = 30
    base_seed: int = 0
    sog_p: float = 6.0
    workers: int = 1
    trainables: tuple[TrainableSpec, ...] = DEFAULT_TRAINABLES


@dataclass
class BenchReport:
    """Everything a report directory is rendered from.

    errors maps (method, metric) to per-sample error arrays aligned
    with sample_ids; summary holds the corresponding ErrorStats; and
    uncertainties maps each trained member to its raw per-sample
    uncertainty mu, aligned with sample_ids.
    """

    config: dict
    methods: tuple[str, ...]
    model_names: tuple[str, ...]
    sample_ids: np.ndarray
    errors: dict[tuple[str, str], np.ndarray]
    summary: dict[tuple[str, str], ErrorStats]
    uncertainties: dict[str, np.ndarray]


def _method_list(model_names) -> tuple[str, ...]:
    methods = ["grey-world", "shades-of-grey", *model_names]
    if model_names:
        methods += ["mcde-linear", "mcde-log", "ideal"]
    return tuple(methods)


def _evaluate_samples(models, scenes, sample_ids, nu, base_seed, sog_p):
    """Per-sample errors and uncertainties for one batch of scenes.

    ``models`` is a list of (name, network) pairs; MC seeds are keyed
    by each sample's global id so results are independent of batching.
    An error from one scene is re-raised naming its sample id.
    """
    model_names = [name for name, _ in models]
    nets = [net for _, net in models]
    errors = {(m, metric): [] for m in _method_list(model_names) for metric in METRICS}
    uncertainties: dict[str, list[float]] = {name: [] for name in model_names}

    for sample_id, scene in zip(sample_ids, scenes):
        try:
            estimates = {
                "grey-world": baselines.grey_world(scene.pixels),
                "shades-of-grey": baselines.shades_of_grey(scene.pixels, sog_p),
            }
            if nets:
                members = fusion.ensemble_estimates(
                    nets, scene.pixels, nu, derive_seed("sample-mc", base_seed, sample_id)
                )
                means = [est.mean for est in members]
                estimates.update(zip(model_names, means))
                for variant in ("linear", "log"):
                    estimates[f"mcde-{variant}"] = fusion.fuse(members, variant).fused
                for name, est in zip(model_names, members):
                    uncertainties[name].append(est.mu)
            for metric, fn in METRICS.items():
                if nets:
                    estimates["ideal"] = fusion.ideal_combine(means, scene.label, metric)
                for method, est in estimates.items():
                    errors[(method, metric)].append(float(fn(scene.label, est)))
        except Exception as exc:
            raise RuntimeError(f"sample {sample_id}: {exc}") from exc
    return errors, uncertainties


def _report(echo: dict, model_names, batches) -> BenchReport:
    """One report from per-batch (errors, uncertainties), merged in order."""
    errors: dict[tuple[str, str], list[float]] = {}
    uncertainties: dict[str, list[float]] = {}
    for batch_errors, batch_unc in batches:
        for key, values in batch_errors.items():
            errors.setdefault(key, []).extend(values)
        for name, values in batch_unc.items():
            uncertainties.setdefault(name, []).extend(values)
    errors = {key: np.array(values) for key, values in errors.items()}
    return BenchReport(
        config=echo,
        methods=_method_list(model_names),
        model_names=tuple(model_names),
        sample_ids=np.arange(len(errors[("grey-world", "recovery")])),
        errors=errors,
        summary={key: stats(values) for key, values in errors.items()},
        uncertainties={name: np.array(values) for name, values in uncertainties.items()},
    )


def _train_member(spec: TrainableSpec, scenes, init_seed: int, train_seed: int):
    net = build(
        spec.arch,
        seed=init_seed,
        channels=spec.channels,
        dropout_rate=spec.dropout_rate,
    )
    train(
        net,
        scenes,
        TrainConfig(
            epochs=spec.epochs,
            learning_rate=spec.learning_rate,
            batch_size=spec.batch_size,
            base_seed=train_seed,
        ),
    )
    return net


def _run_fold(dataset: Dataset, config: BenchConfig, spans, fold_index: int):
    span = spans[fold_index]
    try:
        train_scenes = [
            scene
            for i, scene in enumerate(dataset.scenes)
            if i < span.start or i >= span.stop
        ]
        models = []
        for spec in config.trainables:
            net = _train_member(
                spec,
                train_scenes,
                init_seed=derive_seed("fold-init", config.base_seed, fold_index, spec.name),
                train_seed=derive_seed("fold-train", config.base_seed, fold_index, spec.name),
            )
            models.append((spec.name, net))
        eval_scenes = [dataset.scenes[i] for i in span]
        return _evaluate_samples(
            models, eval_scenes, list(span), config.nu, config.base_seed, config.sog_p
        )
    except Exception as exc:
        raise RuntimeError(f"fold {fold_index} failed: {exc}") from exc


def crossval(dataset: Dataset, config: BenchConfig = BenchConfig()) -> BenchReport:
    """k-fold protocol: train members on the other k-1 folds, score the rest.

    Folds are independent, so ``config.workers`` > 1 fans them out to
    worker processes; results are merged in fold order and are
    identical for any worker count.
    """
    spans = folds(len(dataset.scenes), config.folds)
    runner = partial(_run_fold, dataset, config, spans)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            batches = list(pool.map(runner, range(len(spans))))
    else:
        batches = [runner(i) for i in range(len(spans))]
    echo = {
        "protocol": "cross-validation",
        "folds": config.folds,
        "nu": config.nu,
        "base_seed": config.base_seed,
        "sog_p": config.sog_p,
        "trainables": [asdict(spec) for spec in config.trainables],
        "dataset": asdict(dataset.config),
        "format_version": 1,
    }
    return _report(echo, [spec.name for spec in config.trainables], batches)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report(report: BenchReport, out_dir) -> None:
    """Render a report directory; bytes depend only on the report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(report.config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    stat_fields = [field.name for field in fields(ErrorStats)]
    summary_rows = []
    for method in report.methods:
        for metric in METRICS:
            summary_rows.append((method, metric, *astuple(report.summary[(method, metric)])))
    _write_csv(out / "summary.csv", ["method", "metric", *stat_fields], summary_rows)

    sample_rows = []
    mu_rows = []
    for pos, sample_id in enumerate(report.sample_ids):
        for method in report.methods:
            for metric in METRICS:
                sample_rows.append(
                    (int(sample_id), method, metric, float(report.errors[(method, metric)][pos]))
                )
        for name in report.model_names:
            mu_rows.append((int(sample_id), name, float(report.uncertainties[name][pos])))
    _write_csv(
        out / "per_sample.csv", ["sample", "method", "metric", "error_deg"], sample_rows
    )
    _write_csv(out / "uncertainty_per_sample.csv", ["sample", "method", "mu"], mu_rows)


@dataclass(frozen=True)
class ScenarioConfig:
    """Domain-shift scenario: each member sees only one illuminant band.

    g-net trains on blue-shifted scenes, m-net on red-shifted ones, and
    both are evaluated on a mixed set drawn from the union of the two
    bands.  Off-band inputs make a member's dropout passes disagree,
    so the fusion can lean on whichever member is at home.
    """

    seed: int = 7
    eval_per_band: int = 200
    train_per_band: int = 360
    nu: int = 30
    width: int = 16
    height: int = 16
    n_patches: int = 25
    noise_std: float = 0.01
    channels: int = 12
    dropout_rate: float = 0.45
    epochs: int = 60
    learning_rate: float = 0.05
    batch_size: int = 8
    sog_p: float = 6.0


def _band_scenes(config: ScenarioConfig, n_scenes: int, band: str, purpose: str):
    return gen_dataset(
        GenConfig(
            n_scenes=n_scenes,
            width=config.width,
            height=config.height,
            n_patches=config.n_patches,
            pool=band,
            noise_std=config.noise_std,
            base_seed=derive_seed(purpose, config.seed, band),
        )
    ).scenes


def _train_scenario_member(config: ScenarioConfig, name: str, band: str):
    """Generate member ``name``'s training scenes and train it on them.

    Runs in a worker process; an error is re-raised naming the member.
    """
    try:
        spec = TrainableSpec(
            name=name,
            arch=name,
            channels=config.channels,
            dropout_rate=config.dropout_rate,
            epochs=config.epochs,
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
        )
        return _train_member(
            spec,
            _band_scenes(config, config.train_per_band, band, "scenario-train"),
            init_seed=derive_seed("scenario-init", config.seed, name),
            train_seed=derive_seed("scenario-train-loop", config.seed, name),
        )
    except Exception as exc:
        raise RuntimeError(f"member {name} failed: {exc}") from exc


def band_shift_scenario(config: ScenarioConfig = ScenarioConfig()) -> BenchReport:
    """Train one member per band, evaluate on the union of both bands.

    The members are independent until fusion, so each trains in its own
    forked worker process, which generates its band's training scenes
    itself: only the trained network travels back.  Meanwhile this
    process generates the evaluation scenes; it then runs the MC
    evaluation.  Every seed is fixed by the config, so the report is
    the same, bit for bit, as training the members one after the other.
    """
    names, bands = ("g-net", "m-net"), ("band-a", "band-b")
    with ProcessPoolExecutor(max_workers=len(names)) as pool:
        trained = pool.map(partial(_train_scenario_member, config), names, bands)
        eval_scenes = [
            scene
            for band in bands
            for scene in _band_scenes(config, config.eval_per_band, band, "scenario-eval")
        ]
        models = list(zip(names, trained))
    batch = _evaluate_samples(
        models,
        eval_scenes,
        range(len(eval_scenes)),
        config.nu,
        derive_seed("scenario-mc", config.seed),
        config.sog_p,
    )
    echo = {"protocol": "band-shift-scenario", "format_version": 1, **asdict(config)}
    return _report(echo, names, [batch])

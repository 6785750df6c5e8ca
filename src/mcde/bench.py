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
member, one fusion row per entry of ``fusion.VARIANTS``, and the ideal
row: under each metric, the members' least error per sample, which is
the error of the member ``fusion.ideal_combine`` picks.  Every method
is scored with every metric in ``METRICS``.

CSV files are UTF-8, comma-separated, one header row, full-precision
(17 significant digit) decimals.  Human-readable renderings round to
one decimal; the files never do.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from mcde import baselines, fusion
from mcde._check import check_int, check_real
from mcde.color import METRICS, check_label, check_pixels
from mcde.datagen import MAX_PIXELS, Dataset, GenConfig, folds, gen_dataset
from mcde.mc import MAX_NU, mc_estimates
from mcde.nn.archs import ARCHITECTURES, build, stack
from mcde.nn.training import TrainConfig, train
from mcde.seeding import MAX_SEED, derive_seed

__all__ = [
    "fill",
    "ErrorStats",
    "stats",
    "TrainableSpec",
    "train_member",
    "BenchConfig",
    "BenchReport",
    "crossval",
    "write_report",
    "SCENARIO_MEMBERS",
    "ScenarioConfig",
    "band_shift_scenario",
]


def fill(config_class, source, **given):
    """A ``config_class`` with the fields ``given``, and every other field
    set to ``source``'s attribute of the same name."""
    names = [field.name for field in fields(config_class) if field.name not in given]
    return config_class(**given, **{name: getattr(source, name) for name in names})


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
    values; the trimean is (Q1 + 2 * median + Q3) / 4.  A NaN or
    infinite error is refused by name.
    """
    arr = np.sort(np.asarray(errors, dtype=np.float64).ravel())
    n = arr.size
    if n == 0:
        raise ValueError("cannot summarize an empty error sample")
    if not np.isfinite(arr).all():
        raise ValueError(f"errors must be finite, got {arr[~np.isfinite(arr)][0]}")
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
    """One trainable ensemble member and its training hyperparameters.

    Checked when built, so a bad spec fails before any member trains:
    the architecture, channels and rate by ``stack``, the training
    fields by ``TrainConfig``.
    """

    name: str
    arch: str
    channels: int = 12
    dropout_rate: float = 0.3
    epochs: int = 30
    learning_rate: float = 0.05
    batch_size: int = 8

    def __post_init__(self) -> None:
        stack(self.arch, self.channels, self.dropout_rate)
        self.train_config(0)

    def train_config(self, base_seed: int) -> TrainConfig:
        """The ``TrainConfig`` this member trains with, from ``base_seed``."""
        return fill(TrainConfig, self, base_seed=base_seed)


DEFAULT_TRAINABLES = tuple(TrainableSpec(name=arch, arch=arch) for arch in ARCHITECTURES)

# The report's rows besides the members: the baselines, then, with any
# member, one fusion row per variant and the ideal row.
_BASELINE_ROWS = ("grey-world", "shades-of-grey")
_FUSED_ROWS = (*(f"mcde-{variant}" for variant in fusion.VARIANTS), "ideal")


@dataclass(frozen=True)
class BenchConfig:
    folds: int = 10
    nu: int = 30
    base_seed: int = 0
    sog_p: float = 6.0
    workers: int = 1
    trainables: tuple[TrainableSpec, ...] = DEFAULT_TRAINABLES

    def __post_init__(self) -> None:
        check_int("folds", self.folds, 2)
        check_int("nu", self.nu, 1, MAX_NU)
        check_real("sog_p", self.sog_p, 1.0)
        check_int("workers", self.workers, 1)
        check_int("base_seed", self.base_seed, 0, MAX_SEED)
        names = [spec.name for spec in self.trainables]
        if len(set(names)) < len(names):
            raise ValueError(f"member names must be distinct, got {names}")
        for name in names:
            if name in _BASELINE_ROWS + _FUSED_ROWS:
                raise ValueError(f"member name {name!r} is taken by a report row")
            # The name is a CSV field of the report, written unquoted.
            csv_safe = isinstance(name, str) and name.isprintable() and not set(',"') & set(name)
            if not name or not csv_safe:
                raise ValueError(
                    f"member name {name!r} must be a non-empty printable string "
                    "without ',' or '\"'"
                )


@dataclass
class BenchReport:
    """Everything a report directory is rendered from.

    errors maps (method, metric) to per-sample error arrays, sample i
    at position i, in report order: the baselines, the members, the
    fusion rows and the ideal row, each under every metric of
    ``METRICS`` in turn.  uncertainties maps each trained member, in
    member order, to its raw per-sample uncertainty mu.  loss_traces
    holds each trained member's per-epoch mean training loss, keyed by
    (fold, member) for ``crossval`` and by member for the scenario.  No
    report file holds the traces.
    """

    config: dict
    errors: dict[tuple[str, str], np.ndarray]
    uncertainties: dict[str, np.ndarray]
    loss_traces: dict


def _evaluate_samples(names, scenes, sample_ids, estimates, sog_p):
    """Per-sample errors and uncertainties for one batch of scenes.

    ``estimates`` holds member ``names[k]``'s ``_member_estimates`` on
    ``scenes`` at k.  Each fusion variant fuses the whole batch in one
    ``fusion.combine`` call (once per fold), and each metric scores a
    method's estimates in one call; the ideal row is the members' least
    error.  An error is re-raised naming its sample id, and from a
    fusion or a metric also the method.
    """
    rows = []
    for sample_id, scene in zip(sample_ids, scenes):
        try:
            rows.append(
                [baselines.grey_world(scene.pixels), baselines.shades_of_grey(scene.pixels, sog_p)]
            )
        except Exception as exc:
            raise RuntimeError(f"sample {sample_id}: {exc}") from exc
    labels = np.array([scene.label for scene in scenes])
    columns = np.stack(rows, axis=1)  # (method, sample, 3)
    mus = [mu for _, mu in estimates]
    if names:
        members = np.stack([means for means, _ in estimates])  # (member, sample, 3)
        means, sample_mus = members.swapaxes(0, 1), np.stack(mus, axis=1)
        fused = [
            _per_sample(lambda m, u: fusion.combine(m, u, variant)[0],
                        sample_ids, f"mcde-{variant}", means, sample_mus)
            for variant in fusion.VARIANTS
        ]
        columns = np.concatenate([columns, members, fused])
    errors = {}
    # zip stops before the fusion rows when there is no member, and
    # before the ideal row, which has no estimate, when there is one.
    for method, column in zip((*_BASELINE_ROWS, *names, *_FUSED_ROWS), columns):
        for metric, fn in METRICS.items():
            errors[(method, metric)] = _per_sample(fn, sample_ids, method, labels, column)
    for metric in METRICS if names else ():
        errors[("ideal", metric)] = np.min([errors[(m, metric)] for m in names], axis=0)
    return errors, dict(zip(names, mus))


def _member_estimates(net, k, scenes, sample_ids, nu, base_seed):
    """Member k's (S, 3) MC means and (S,) mu on ``scenes``, from one
    ``mc_estimates`` call over the scene axis.

    A sample's MC seed is keyed by its global id, so results are
    independent of batching, and a row holds the bytes of member k's
    ``fusion.ensemble_estimates`` of that sample alone.  An error is
    re-raised naming the first sample that fails on its own.
    """
    pixels = [scene.pixels for scene in scenes]
    seeds = [fusion.member_seed(derive_seed("sample-mc", base_seed, i), k) for i in sample_ids]
    try:
        means, _, mus = mc_estimates(net, pixels, nu, seeds)
    except Exception:
        for sample_id, one, seed in zip(sample_ids, pixels, seeds):
            try:
                mc_estimates(net, [one], nu, [seed])
            except Exception as exc:
                raise RuntimeError(f"sample {sample_id}: {exc}") from exc
        raise
    return means, mus


def _per_sample(fn, sample_ids, method, *columns):
    """``fn(*columns)`` over a batch of samples; a refusal is re-raised
    naming the first sample that ``fn`` refuses on its own, and ``method``."""
    try:
        return fn(*columns)
    except ValueError:
        for sample_id, *row in zip(sample_ids, *columns):
            try:
                fn(*row)
            except ValueError as exc:
                raise RuntimeError(f"sample {sample_id}: {method}: {exc}") from exc
        raise


def _report(echo: dict, batches, loss_traces: dict) -> BenchReport:
    """One report from per-batch (errors, uncertainties), merged in order."""
    batch_errors, batch_mus = zip(*batches)
    errors = {k: np.concatenate([batch[k] for batch in batch_errors]) for k in batch_errors[0]}
    mus = {name: np.concatenate([batch[name] for batch in batch_mus]) for name in batch_mus[0]}
    return BenchReport(config=echo, errors=errors, uncertainties=mus, loss_traces=loss_traces)


def train_member(spec: TrainableSpec, scenes, init_seed: int, train_seed: int):
    """Build ``spec``'s network from ``init_seed`` and train it on ``scenes``.

    Returns (net, per-epoch mean loss trace).  Every member, in the
    bench, the scenario and ``mcde train``, is made here.
    """
    net = build(
        spec.arch,
        seed=init_seed,
        channels=spec.channels,
        dropout_rate=spec.dropout_rate,
    )
    return train(net, scenes, spec.train_config(train_seed))


def _run_fold(dataset: Dataset, config: BenchConfig, spans, fold_index: int):
    """(errors, uncertainties) of the fold's samples, and member -> loss trace.

    Each member is evaluated right after it trains; an error from either
    step is re-raised naming the member."""
    span = spans[fold_index]
    try:
        train_scenes = dataset.scenes[: span.start] + dataset.scenes[span.stop :]
        eval_scenes = dataset.scenes[span.start : span.stop]
        estimates, traces = [], {}
        for k, spec in enumerate(config.trainables):
            try:
                net, traces[spec.name] = train_member(
                    spec,
                    train_scenes,
                    init_seed=derive_seed("fold-init", config.base_seed, fold_index, spec.name),
                    train_seed=derive_seed("fold-train", config.base_seed, fold_index, spec.name),
                )
                estimates.append(
                    _member_estimates(net, k, eval_scenes, span, config.nu, config.base_seed)
                )
            except Exception as exc:
                raise RuntimeError(f"{spec.name}: {exc}") from exc
        batch = _evaluate_samples(list(traces), eval_scenes, span, estimates, config.sog_p)
        return batch, traces
    except Exception as exc:
        raise RuntimeError(f"fold {fold_index} failed: {exc}") from exc


_worker_args = None  # a pool worker's task and its arguments, shared by all of its calls


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _call_worker(i: int):
    task, *args = _worker_args
    return task(*args, i)


def _map(task, args, n: int, workers: int) -> list:
    """``[task(*args, i) for i in range(n)]``: here with one worker, else in
    at most ``min(workers, n)`` forked worker processes.  A worker gets
    ``task`` and ``args`` once, when it starts (it inherits them), and
    each call only its index ``i``."""
    workers = min(workers, n)
    if workers <= 1:
        return [task(*args, i) for i in range(n)]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(task, *args)
    ) as pool:
        return list(pool.map(_call_worker, range(n)))


def crossval(dataset: Dataset, config: BenchConfig = BenchConfig()) -> BenchReport:
    """k-fold protocol: train members on the other k-1 folds, score the rest.

    Folds are independent, so ``config.workers`` > 1 fans them out
    through ``_map`` to at most one worker process per fold, which
    inherits the dataset.  Results are merged in fold order and are
    identical for any worker count.  Every scene is checked by
    ``check_pixels`` and ``check_label`` before any fold starts, and a
    refused one is named by its index in the dataset.
    """
    for i, scene in enumerate(dataset.scenes):
        check_pixels(scene.pixels, f"scene {i} ")
        check_label(scene.label, f"scene {i}: ")
    spans = folds(len(dataset.scenes), config.folds)
    results = _map(_run_fold, (dataset, config, spans), len(spans), config.workers)
    traces = {
        (i, name): trace
        for i, (_, by_name) in enumerate(results)
        for name, trace in by_name.items()
    }
    echo = {"protocol": "cross-validation", "format_version": 1, **asdict(config)}
    del echo["workers"]  # does not change results
    echo.update(trainables=list(echo["trainables"]), dataset=asdict(dataset.config))
    return _report(echo, [batch for batch, _ in results], traces)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(format(float(v), ".17g") if isinstance(v, float) else str(v) for v in row)
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
    summary_rows = [
        (method, metric, *astuple(stats(values)))
        for (method, metric), values in report.errors.items()
    ]
    _write_csv(out / "summary.csv", ["method", "metric", *stat_fields], summary_rows)

    sample_rows = []
    mu_rows = []
    for i in range(len(report.errors[("grey-world", "recovery")])):
        for (method, metric), values in report.errors.items():
            sample_rows.append((i, method, metric, float(values[i])))
        for name, mu in report.uncertainties.items():
            mu_rows.append((i, name, float(mu[i])))
    _write_csv(
        out / "per_sample.csv", ["sample", "method", "metric", "error_deg"], sample_rows
    )
    _write_csv(out / "uncertainty_per_sample.csv", ["sample", "method", "mu"], mu_rows)


# The scenario's members, each an architecture and the illuminant band
# it trains on.  The evaluation set is the bands' scenes in this order.
SCENARIO_MEMBERS = (("g-net", "band-a"), ("m-net", "band-b"))


@dataclass(frozen=True)
class ScenarioConfig:
    """Domain-shift scenario: each member sees only one illuminant band.

    g-net trains on blue-shifted scenes, m-net on red-shifted ones (the
    rows of ``SCENARIO_MEMBERS``), and both are evaluated on a mixed set
    drawn from the union of the two bands.  Scenes have ``GenConfig``'s
    default size, patches and noise.  Off-band inputs make a member's
    dropout passes disagree, so the fusion can lean on whichever member
    is at home.
    """

    seed: int = 7
    eval_per_band: int = 200
    train_per_band: int = 360
    nu: int = 30
    channels: int = 12
    dropout_rate: float = 0.45
    epochs: int = 60
    learning_rate: float = 0.05
    batch_size: int = 8
    sog_p: float = 6.0

    def __post_init__(self) -> None:
        check_int("nu", self.nu, 1, MAX_NU)
        check_real("sog_p", self.sog_p, 1.0)
        # A band's scenes are one dataset of GenConfig's default size.
        per_band = MAX_PIXELS // (GenConfig.width * GenConfig.height)
        check_int("eval_per_band", self.eval_per_band, 1, per_band)
        check_int("train_per_band", self.train_per_band, 1, per_band)
        check_int("seed", self.seed, 0, MAX_SEED)
        self.specs()  # a bad member fails here, before any member trains

    def specs(self) -> tuple[TrainableSpec, ...]:
        """One member per row of ``SCENARIO_MEMBERS``, with this config's training fields."""
        return tuple(
            fill(TrainableSpec, self, name=arch, arch=arch) for arch, _ in SCENARIO_MEMBERS
        )


def _band_scenes(config: ScenarioConfig, n_scenes: int, band: str, purpose: str):
    seed = derive_seed(purpose, config.seed, band)
    return gen_dataset(GenConfig(n_scenes=n_scenes, pool=band, base_seed=seed)).scenes


def _scenario_member(config: ScenarioConfig, eval_scenes, index: int):
    """Train member ``index`` of ``SCENARIO_MEMBERS`` on scenes of its band,
    which it generates itself, and evaluate it on ``eval_scenes``.

    Runs in a worker process and returns (loss trace, its
    ``_member_estimates``); the network stays there.  An error is
    re-raised naming the member.
    """
    spec, (_, band) = config.specs()[index], SCENARIO_MEMBERS[index]
    try:
        net, trace = train_member(
            spec,
            _band_scenes(config, config.train_per_band, band, "scenario-train"),
            init_seed=derive_seed("scenario-init", config.seed, spec.name),
            train_seed=derive_seed("scenario-train-loop", config.seed, spec.name),
        )
        mc_seed = derive_seed("scenario-mc", config.seed)
        ids = range(len(eval_scenes))
        return trace, _member_estimates(net, index, eval_scenes, ids, config.nu, mc_seed)
    except Exception as exc:
        raise RuntimeError(f"member {spec.name} failed: {exc}") from exc


def band_shift_scenario(config: ScenarioConfig = ScenarioConfig()) -> BenchReport:
    """Train one member per band, evaluate on the union of both bands.

    This process generates the evaluation scenes first.  The members
    are independent until fusion, so ``_map`` then runs each in its own
    forked worker process, which inherits the evaluation scenes,
    generates its band's training scenes itself, trains its member and
    runs its MC passes on every evaluation scene: only the loss trace
    and the estimates travel back.  This process then scores the
    baselines, the members and the fusion.  Every seed is fixed by the
    config, so the report is the same, bit for bit, as training and
    evaluating the members one after the other here.
    """
    specs, bands = config.specs(), [band for _, band in SCENARIO_MEMBERS]
    eval_scenes = [
        scene
        for band in bands
        for scene in _band_scenes(config, config.eval_per_band, band, "scenario-eval")
    ]
    trained = _map(_scenario_member, (config, eval_scenes), len(specs), len(specs))
    traces, estimates = zip(*trained)
    names = [spec.name for spec in specs]
    batch = _evaluate_samples(names, eval_scenes, range(len(eval_scenes)), estimates, config.sog_p)
    echo = {"protocol": "band-shift-scenario", "format_version": 1, **asdict(config)}
    echo["members"] = [list(member) for member in SCENARIO_MEMBERS]
    return _report(echo, [batch], dict(zip(names, traces)))

"""mcde benchmark: three workloads driven through the public API and CLI.

    python3 perfbench/run.py --workload band-shift --seed 1 --seconds 5 --trace 0

Workloads (see perfbench/README.md for why each exists):

    band-shift   mcde.bench.band_shift_scenario() at the default
                 ScenarioConfig, the paper's experiment
    serve-16     mcde.mcde(members, pixels, nu=30, variant="log") once per
                 fresh 16x16 scene, members trained, saved and loaded in set-up
    crossval-64  `mcde gen-data` of a 64x64 dataset in set-up, then repeated
                 `mcde bench --workers 2` processes over it

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds per-layer metrics from
spans recorded around the library's entry points (perfbench/tracer.py).
Every run checks its outputs with perfbench/checks.py and reports the
result as ``correct``; an operation that raises or exits non-zero is
counted in ``failed`` and left out of the timings and checks.  Working
files go to ``.perfbench_work/`` at the root of the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads: the crossval-64
# fold workers would otherwise oversubscribe the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference_digests.json"
SPEC = ROOT / "BENCHMARK.json"  # the metric names and units

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracer import FOLD_SPAN, Totals, Tracer, install, load_spans, root_time_ns  # noqa: E402

WORKLOADS = ("band-shift", "serve-16", "crossval-64")

BAND_SHIFT_MIN_ROUNDS = 2  # scenario calls per run, at least; one call varied 25-35 s
IMPORT_PROBES = 5  # fresh-interpreter imports timed as band-shift's set-up
SETUP_REPEATS = 3  # set-ups per run on serve-16 and crossval-64

# serve-16: the members are pinned (a deployed model); the scene stream
# and the per-call seeds come from --seed.
SERVE_MODEL_SEED = 11
SERVE_TRAIN = dict(n_scenes=120, epochs=10, channels=12, dropout=0.3, lr=0.05)
SERVE_NU = 30
SERVE_ROUND = 100  # calls per round
SERVE_MIN_ROUNDS = 20  # at least 2000 calls, so a hundred lie beyond p95
SERVE_MC_CHECK_EVERY = 50  # every 50th call is redone pass by pass

# crossval-64: the dataset comes from --seed; the bench config is pinned.
CV_SCENES, CV_SIZE, CV_FOLDS, CV_EPOCHS, CV_WORKERS = 128, 64, 4, 4, 2
CV_MIN_ROUNDS = 1  # timed `mcde bench` rounds per run, after one untimed round


def import_mcde():
    """Import the library from this checkout's src/ and nowhere else."""
    if not (SRC / "mcde" / "__init__.py").is_file():
        sys.exit(f"error: no mcde sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import mcde

    if Path(mcde.__file__).resolve().parent != (SRC / "mcde").resolve():
        sys.exit(f"error: imported mcde from {mcde.__file__}, not from {SRC}")
    return mcde


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the name is informative only
        pass
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """State of one benchmark run: timings, counts, problems, spans."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.span_dir = self.work / "spans"
        self.span_dir.mkdir()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed checks: correct is false
        self.failures: list[str] = []  # failed operations, counted in failed
        self.setup_s: list[float] = []
        self.op_ms: list[float] = []
        self.fused_log_mean_deg: float | None = None
        self.digest: str | None = None
        self.tracer = Tracer() if trace else None
        self.totals = Totals()
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.traced_root_ns = 0

    def check(self, problems, where: str) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.failures.append(message)

    def traced(self, call, measured=False):
        """Run ``call()`` with the library wrapped; keep the spans it records.

        ``call`` looks the library's functions up when it runs, so it sees
        the wrappers.  Top-level spans of a ``measured`` call count toward
        coverage.
        """
        first = len(self.tracer.start)
        uninstall = install(self.tracer)
        try:
            return call()
        finally:
            uninstall()
            spans = self.tracer.arrays(first)
            self.totals.add(spans)
            if measured:
                self.traced_root_ns += root_time_ns(spans)

    def gather_spans(self, span_dir, measured: bool) -> None:
        """Add the span files a traced mcde command wrote; top-level spans of
        its main process count toward coverage when ``measured``."""
        for path in sorted(span_dir.glob("spans-*.npz")):
            spans = load_spans(path)
            self.totals.add(spans)
            if measured and path.name.startswith("spans-main-"):
                self.traced_root_ns += root_time_ns(spans)


# ---------------------------------------------------------------------------
# band-shift


def band_shift_round(run: Run, tag: str, traced: bool = False):
    """One band_shift_scenario() call; returns (seconds, report dir, eval scenes)."""
    import mcde.bench as bench

    # The evaluation scenes are kept for the grey-world check: a recording
    # hook on the scenario's dataset generator, four calls per scenario.
    made = []
    generate = bench.gen_dataset

    def recording(config):
        made.append(generate(config))
        return made[-1]

    config = bench.ScenarioConfig()
    bench.gen_dataset = recording
    try:
        t0 = time.perf_counter()
        if traced:
            report = run.traced(lambda: bench.band_shift_scenario(config), measured=True)
        else:
            report = bench.band_shift_scenario(config)
        elapsed = time.perf_counter() - t0
    finally:
        bench.gen_dataset = generate
    out = run.work / f"report-{tag}"
    if traced:
        run.traced(lambda: bench.write_report(report, out))
    else:
        bench.write_report(report, out)
    scenes = [
        scene for ds in made if ds.config.n_scenes == config.eval_per_band for scene in ds.scenes
    ]
    return elapsed, out, scenes


def band_shift(run: Run) -> None:
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mcde.bench"], check=True, timeout=60)
        run.setup_s.append(time.perf_counter() - t0)

    reports = []

    def scenario(tag: str, traced: bool = False):
        """One checked scenario call: its seconds, or None if it raised."""
        run.attempted += 1
        try:
            elapsed, out, scenes = band_shift_round(run, tag, traced)
        except Exception as exc:
            run.fail(1, f"band-shift {tag}: {exc!r}")
            return None
        reports.append(out)
        pixels = [s.pixels for s in scenes]
        labels = np.stack([s.label for s in scenes])
        run.check(checks.check_report(out), f"band-shift {tag}")
        run.check(checks.check_grey_world(out, pixels, labels), f"band-shift {tag}")
        return elapsed

    if run.trace:
        run.untraced_s = scenario("untraced")
        run.traced_s = scenario("traced", traced=True)
    else:
        start = time.perf_counter()
        while run.attempted < BAND_SHIFT_MIN_ROUNDS or time.perf_counter() - start < run.seconds:
            elapsed = scenario(f"r{run.attempted}")
            if elapsed is not None:
                run.op_ms.append(elapsed * 1e3)
    finish_reports(run, reports, "band-shift")


def finish_reports(run: Run, reports, name: str) -> None:
    if not reports:
        return
    digests = {sha256(r / "summary.csv") for r in reports}
    if len(digests) != 1:
        run.problems.append(f"{name}: summary.csv differs between repetitions")
    run.digest = sha256(reports[0] / "summary.csv")
    run.fused_log_mean_deg = checks.read_summary(reports[0])[("mcde-log", "recovery")]["mean"]


# ---------------------------------------------------------------------------
# serve-16


def serve_setup(run: Run, rep: int):
    """Train a g-net and an m-net, save them, read them back."""
    from mcde import derive_seed
    from mcde.datagen import GenConfig, gen_dataset
    from mcde.nn import TrainConfig, build, load_network, save_network, train

    cfg = SERVE_TRAIN
    data = gen_dataset(
        GenConfig(n_scenes=cfg["n_scenes"], pool="full", base_seed=SERVE_MODEL_SEED)
    )
    paths = []
    for arch in ("g-net", "m-net"):
        net = build(
            arch,
            seed=derive_seed("init", SERVE_MODEL_SEED, arch),
            channels=cfg["channels"],
            dropout_rate=cfg["dropout"],
        )
        net, trace = train(
            net,
            data.scenes,
            TrainConfig(
                epochs=cfg["epochs"],
                learning_rate=cfg["lr"],
                base_seed=derive_seed("train", SERVE_MODEL_SEED, arch),
            ),
        )
        path = run.work / f"setup-{rep}-{arch}.net"
        save_network(net, path, loss_trace=trace)
        paths.append(path)
    return [load_network(p) for p in paths], paths


def stream_config(run: Run):
    """The serve-16 scene stream: scene i is gen_scene(stream_config(run), i)."""
    from mcde import derive_seed
    from mcde.datagen import GenConfig

    return GenConfig(n_scenes=0, pool="full", base_seed=derive_seed("perfbench-serve", run.seed))


def call_seed(run: Run, i: int) -> int:
    from mcde import derive_seed

    return derive_seed("perfbench-call", run.seed, i)


def serve_round(run: Run, members, first: int, fused: dict, errors: list, check: bool) -> None:
    """SERVE_ROUND calls on fresh scenes; only the mcde() call is timed.

    Keeps each call's fused estimate (as bytes, by call index) and
    recovery error, and checks the round's results afterwards when
    ``check`` is set.
    """
    from mcde import mcde, recovery_error, reproduction_error
    from mcde.datagen import gen_scene

    stream = stream_config(run)
    calls = []
    for i in range(first, first + SERVE_ROUND):
        scene = gen_scene(stream, i)
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            result = mcde(members, scene.pixels, nu=SERVE_NU, base_seed=call_seed(run, i),
                          variant="log")
        except Exception as exc:
            run.fail(1, f"serve-16 call {i}: {exc!r}")
            continue
        run.op_ms.append((time.perf_counter() - t0) * 1e3)
        calls.append((i, scene, result))
    for i, scene, result in calls:
        fused[i] = result.fused.tobytes()
        errors.append(float(recovery_error(scene.label, result.fused)))
        reproduction_error(scene.label, result.fused)  # both, as `mcde estimate` reports
        if check:
            serve_check(run, members, i, scene, result, errors[-1])


def serve_check(run: Run, members, i: int, scene, result, recovery: float) -> None:
    from mcde import derive_seed
    from mcde.nn import Mode, PassSeed

    run.check(checks.check_fused(result), f"serve-16 call {i}")
    expected = checks.angle_deg(scene.label, result.fused)[0]
    if abs(expected - recovery) > 1e-6:
        run.problems.append(f"serve-16 call {i}: recovery error {recovery} != {expected}")
    if i % SERVE_MC_CHECK_EVERY:
        return
    for k, (net, est) in enumerate(zip(members, result.estimates)):
        member_seed = derive_seed("ensemble-member", call_seed(run, i), k)
        passes = [
            net.forward(scene.pixels, Mode.MC, PassSeed(member_seed, p)) for p in range(SERVE_NU)
        ]
        run.check(checks.check_mc(est, passes), f"serve-16 call {i} member {k}")


def serve_16(run: Run) -> None:
    import mcde.bench as bench
    from mcde import mcde
    from mcde.datagen import gen_scene

    repeats = 1 if run.trace else SETUP_REPEATS
    model_bytes = set()
    for rep in range(repeats):
        t0 = time.perf_counter()
        if run.trace:
            members, paths = run.traced(lambda: serve_setup(run, rep))
        else:
            members, paths = serve_setup(run, rep)
        run.setup_s.append(time.perf_counter() - t0)
        model_bytes.add(tuple(p.read_bytes() for p in paths))
    if len(model_bytes) != 1:
        run.problems.append("serve-16: set-up repetitions wrote different model files")

    def stream(fused, errors, check):
        start = time.perf_counter()
        rounds = 0
        while True:
            serve_round(run, members, rounds * SERVE_ROUND, fused, errors, check)
            rounds += 1
            if rounds >= SERVE_MIN_ROUNDS and (
                run.trace or time.perf_counter() - start >= run.seconds
            ):
                return time.perf_counter() - start

    fused: dict = {}
    errors: list = []
    if run.trace:
        # Both timed streams skip the checks; one extra round is checked.
        run.untraced_s = stream(fused, errors, check=False)
        traced_fused: dict = {}
        run.traced_s = run.traced(lambda: stream(traced_fused, [], check=False), measured=True)
        checked: dict = {}
        serve_round(run, members, 0, checked, [], check=True)
        if traced_fused != fused or not checked.items() <= fused.items():
            run.problems.append("serve-16: traced or repeated calls returned different estimates")
    else:
        stream(fused, errors, check=True)

    if not errors:
        return  # every call failed
    head = np.array(errors[: SERVE_ROUND * SERVE_MIN_ROUNDS])
    summary = run.traced(lambda: bench.stats(head)) if run.trace else bench.stats(head)
    expected = checks.seven_stats(head)
    for field in checks.STAT_FIELDS:
        if not checks.close(getattr(summary, field), expected[field]):
            run.problems.append(f"serve-16: stats {field} differs from its definition")
    run.fused_log_mean_deg = summary.mean

    if 0 not in fused:
        return
    scene = gen_scene(stream_config(run), 0)
    again = mcde(members, scene.pixels, nu=SERVE_NU, base_seed=call_seed(run, 0), variant="log")
    if again.fused.tobytes() != fused[0]:
        run.problems.append("serve-16: a repeated call returned a different estimate")


# ---------------------------------------------------------------------------
# crossval-64


def crossval_gen_args(seed: int, out) -> list[str]:
    return [
        "gen-data", "--scenes", str(CV_SCENES), "--width", str(CV_SIZE),
        "--height", str(CV_SIZE), "--pool", "full", "--seed", str(seed), "--out", str(out),
    ]


def crossval_bench_args(data, out) -> list[str]:
    return [
        "bench", "--data", str(data), "--out", str(out), "--k", str(CV_FOLDS),
        "--epochs", str(CV_EPOCHS), "--workers", str(CV_WORKERS), "--seed", "0",
    ]


def run_cli(run: Run, args, ops: int, span_dir=None) -> float | None:
    """Time one mcde command in a fresh interpreter, traced if given a span dir.

    ``ops`` is the number of operations it stands for (the command and its
    folds).  Returns its seconds, or None if it exited non-zero.
    """
    if span_dir is not None:
        span_dir.mkdir(exist_ok=True)
        cmd = [sys.executable, str(HERE / "trace_cli.py"), str(span_dir), *args]
    else:
        cmd = [sys.executable, "-m", "mcde.cli", *args]
    run.attempted += ops
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        run.fail(ops, f"mcde {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    return elapsed


def crossval_64(run: Run) -> None:
    repeats = 1 if run.trace else SETUP_REPEATS
    data_dirs = [run.work / f"data-{rep}" for rep in range(repeats)]
    setup_spans = run.span_dir / "setup" if run.trace else None
    for data in data_dirs:
        elapsed = run_cli(run, crossval_gen_args(run.seed, data), 1, setup_spans)
        if elapsed is not None:
            run.setup_s.append(elapsed)
    if run.trace:
        run.gather_spans(setup_spans, measured=False)
    if len(run.setup_s) != repeats:
        return  # a gen-data failed; without a dataset every bench would fail
    manifests = {(d / "manifest.json").read_bytes() + (d / "labels.csv").read_bytes() for d in data_dirs}
    if len(manifests) != 1:
        run.problems.append("crossval-64: gen-data repetitions wrote different datasets")

    # The first `mcde bench` after gen-data ran up to 20% slower than the
    # next ones, so one untimed round goes first.
    reports = []

    def bench_round(name: str, span_dir=None) -> float | None:
        out = run.work / f"report-{name}"
        elapsed = run_cli(run, crossval_bench_args(data_dirs[0], out), 1 + CV_FOLDS, span_dir)
        if elapsed is not None:
            reports.append(out)
        return elapsed

    bench_round("warmup")
    if run.trace:
        run.untraced_s = bench_round("untraced")
        spans = run.span_dir / "measured"
        run.traced_s = bench_round("traced", spans)
        run.gather_spans(spans, measured=True)
        if run.traced_s is not None and run.totals.calls.get(FOLD_SPAN, 0) != CV_FOLDS:
            run.problems.append("crossval-64: spans missing from fold workers")
    else:
        start = time.perf_counter()
        rounds = 0
        while rounds < CV_MIN_ROUNDS or time.perf_counter() - start < run.seconds:
            elapsed = bench_round(str(rounds))
            rounds += 1
            if elapsed is not None:
                run.op_ms.append(elapsed * 1e3)
    if not reports:
        return
    pixels, labels = checks.read_dataset(data_dirs[0])
    for out in reports:
        run.check(checks.check_report(out), f"crossval-64 {out.name}")
        run.check(checks.check_grey_world(out, pixels, labels), f"crossval-64 {out.name}")
    finish_reports(run, reports, "crossval-64")


# ---------------------------------------------------------------------------
# Reporting


def cli_import_s() -> float:
    """Median time to import mcde.cli in a fresh interpreter, in-process."""
    code = "import time; t = time.perf_counter(); import mcde.cli; print(time.perf_counter() - t)"
    times = [
        float(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, timeout=60).stdout)
        for _ in range(3)
    ]
    return statistics.median(times)


IO_SPANS = ("datagen.save", "datagen.load", "nn.io.save_network", "nn.io.load_network",
            "bench.write_report")
LAYER_KINDS = ("conv3x3", "relu", "dropout", "mean-pool", "max-pool", "affine", "positive-head")


def per_layer_metrics(run: Run) -> dict:
    t = run.totals
    m: dict = {}
    for kind in LAYER_KINDS:
        m[f"nn.layers.{kind}.fwd_us"] = t.mean(f"nn.layers.{kind}.fwd", 1e3)
        m[f"nn.layers.{kind}.bwd_us"] = t.mean(f"nn.layers.{kind}.bwd", 1e3)
    m["nn.layers.conv3x3.fwd_calls"] = t.calls.get("nn.layers.conv3x3.fwd", 0)
    m["nn.network.forward_us"] = t.mean("nn.network.forward", 1e3)
    m["nn.network.forward_self_us"] = t.self_mean("nn.network.forward", 1e3)
    m["nn.network.forward_calls"] = t.calls.get("nn.network.forward", 0)
    m["nn.network.backward_us"] = t.mean("nn.network.backward", 1e3)
    m["nn.network.backward_self_us"] = t.self_mean("nn.network.backward", 1e3)
    m["nn.training.train_s"] = t.mean("nn.training.train", 1e9)
    m["nn.training.self_s"] = t.self_mean("nn.training.train", 1e9)
    train_ns = t.total.get("nn.training.train", 0)
    m["nn.training.samples_per_s"] = (
        t.calls.get("nn.network.backward", 0) / (train_ns / 1e9) if train_ns else 0.0
    )
    m["seeding.derive_seed_us"] = t.mean("seeding.derive_seed", 1e3)
    m["seeding.derive_seed_calls"] = t.calls.get("seeding.derive_seed", 0)
    m["mc.mc_estimate_ms"] = t.mean("mc.mc_estimate", 1e6)
    m["mc.self_us"] = t.self_mean("mc.mc_estimate", 1e3)
    m["fusion.ensemble_estimates_ms"] = t.mean("fusion.ensemble_estimates", 1e6)
    m["fusion.fuse_us"] = t.mean("fusion.fuse", 1e3)
    m["color.recovery_error_us"] = t.mean("color.recovery_error", 1e3)
    m["color.reproduction_error_us"] = t.mean("color.reproduction_error", 1e3)
    m["bench.stats_us"] = t.mean("bench.stats", 1e3)
    m["datagen.gen_scene_us"] = t.mean("datagen.gen_scene", 1e3)
    m["io.total_ms"] = sum(t.total.get(name, 0) for name in IO_SPANS) / 1e6
    m["cli.import_s"] = cli_import_s()
    if run.traced_s and run.untraced_s:  # both measured repetitions completed
        m["trace.overhead_pct"] = 100.0 * (run.traced_s - run.untraced_s) / run.untraced_s
        m["trace.coverage_pct"] = 100.0 * run.traced_root_ns / 1e9 / run.traced_s
    return m


def workload_only_metrics(run: Run) -> dict:
    """Layer figures that only some workloads exercise; printed, not gated."""
    t = run.totals
    m = {
        "fusion.mcde_ms": t.mean("fusion.mcde", 1e6),
        "baselines.grey_world_us": t.mean("baselines.grey_world", 1e3),
        "baselines.shades_of_grey_us": t.mean("baselines.shades_of_grey", 1e3),
        "datagen.save_ms": t.mean("datagen.save", 1e6),
        "datagen.load_ms": t.mean("datagen.load", 1e6),
        "bench.write_report_ms": t.mean("bench.write_report", 1e6),
        "nn.io.save_network_ms": t.mean("nn.io.save_network", 1e6),
        "nn.io.load_network_ms": t.mean("nn.io.load_network", 1e6),
    }
    if t.fold_ns:
        m["bench.fold_s_max"] = max(t.fold_ns) / 1e9
        m["bench.fold_s_min"] = min(t.fold_ns) / 1e9
    return {k: v for k, v in m.items() if v}


def metric_units() -> dict:
    """Unit of every end-to-end and per-layer metric, from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def drift(run: Run) -> None:
    """Compare the summary.csv digest with the recorded reference."""
    if run.digest is None:
        return
    print(f"summary.csv sha256 {run.digest}")
    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    key = run.workload if run.workload == "band-shift" else f"{run.workload}/seed={run.seed}"
    ref = refs.get(key)
    if ref is None:
        print(f"drift: no reference digest for {key}")
    elif ref["sha256"] == run.digest:
        print(f"drift: none (matches reference from {ref.get('commit', '?')})")
    else:
        delta = run.fused_log_mean_deg - ref["fused_log_mean_deg"]
        print(
            f"drift: summary.csv differs from reference {ref['sha256'][:16]}; "
            f"fused_log_mean_deg {ref['fused_log_mean_deg']:.6f} -> "
            f"{run.fused_log_mean_deg:.6f} ({delta:+.6f} deg)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_mcde()
    env = environment()
    for key, value in env.items():
        print(f"{key}: {value}")
    units = metric_units()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    body = {"band-shift": band_shift, "serve-16": serve_16, "crossval-64": crossval_64}
    try:
        body[args.workload](run)
    except Exception as exc:  # outside any operation, e.g. in set-up: report what ran
        traceback.print_exc()
        run.problems.append(f"{args.workload} stopped: {exc!r}")
    if not run.attempted:
        sys.exit("error: no operation was attempted: " + "; ".join(run.problems))
    drift(run)

    if run.trace:
        run.tracer.dump(run.span_dir / "spans-harness.npz")
        metrics = per_layer_metrics(run)
        print(f"tracing overhead: traced {run.traced_s} s, untraced {run.untraced_s} s")
        for name, value in sorted(workload_only_metrics(run).items()):
            print(f"  {name} = {value:.6g}")
    else:
        # A metric is left out when no operation gave it a value.
        metrics = {"peak_rss_mib": peak_rss_mib()}
        if run.setup_s:
            metrics["setup_s"] = statistics.median(run.setup_s)
        if run.op_ms:
            metrics["op_ms_p50"] = statistics.median(run.op_ms)
            metrics["op_ms_p95"] = float(np.percentile(run.op_ms, 95))
        if run.fused_log_mean_deg is not None:
            metrics["fused_log_mean_deg"] = run.fused_log_mean_deg
        print(f"operations timed: {len(run.op_ms)}, set-ups: {len(run.setup_s)}")
        if len(run.op_ms) <= 20:
            print("operation times (ms): " + " ".join(f"{t:.1f}" for t in run.op_ms))
    out = {}
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
            out[name] = {"value": metrics[name], "unit": unit}
    for failure in run.failures:
        print(f"OPERATION FAILED: {failure}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    (run.work / "run.json").write_text(
        json.dumps({"args": vars(args), "environment": env, "metrics": out,
                    "problems": run.problems, "failures": run.failures,
                    "op_ms": run.op_ms, "setup_s": run.setup_s},
                   indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

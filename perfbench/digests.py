"""Regenerate the reference digests that runs report drift against.

    python3 perfbench/digests.py

For band-shift (one pinned scenario) and for crossval-64 at seeds 0-20
it records the sha256 of summary.csv and the mcde-log mean recovery
error, and rewrites reference_digests.json with them.

A run whose digest differs prints the change in fused_log_mean_deg; it
does not fail, so a change that corrects the method still passes.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run as bench_run

REFERENCE_SEEDS = range(21)  # crossval-64 seeds with a reference digest


def commit() -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "--short=12", "HEAD"],
        cwd=bench_run.ROOT, capture_output=True, text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def entry(run: bench_run.Run, reports) -> dict:
    if run.failed:
        sys.exit(f"{run.workload} seed {run.seed} failed: {run.failures}")
    bench_run.finish_reports(run, reports, run.workload)
    if run.problems:
        sys.exit(f"{run.workload} seed {run.seed} failed its checks: {run.problems}")
    return {
        "sha256": run.digest,
        "fused_log_mean_deg": run.fused_log_mean_deg,
        "commit": commit(),
    }


def main() -> int:
    bench_run.import_mcde()

    refs = {}
    run = bench_run.Run("band-shift", 0, 0, False)
    _, out, _ = bench_run.band_shift_round(run, "reference")
    refs["band-shift"] = entry(run, [out])
    print(f"band-shift {run.digest[:16]} {run.fused_log_mean_deg:.6f}")
    for seed in REFERENCE_SEEDS:
        run = bench_run.Run("crossval-64", seed, 0, False)
        data, out = run.work / "data", run.work / "report"
        bench_run.run_cli(run, bench_run.crossval_gen_args(seed, data), 1)
        bench_run.run_cli(run, bench_run.crossval_bench_args(data, out), 1)
        refs[f"crossval-64/seed={seed}"] = entry(run, [out])
        print(f"crossval-64 seed {seed} {run.digest[:16]} {run.fused_log_mean_deg:.6f}")

    text = json.dumps(refs, indent=2, sort_keys=True) + "\n"
    bench_run.REFERENCE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

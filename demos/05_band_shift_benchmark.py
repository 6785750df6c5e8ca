"""
The band-shift benchmark: when fusion beats every member
========================================================

The flagship experiment trains each ensemble member on a different
illuminant band and evaluates everything on the union, so each member
is an expert at home and lost abroad.  Confidence weighting then has
to notice WHICH member is at home on every single scene.  This demo
runs a reduced-size version (the full-size run is the shipped
acceptance experiment; see ScenarioConfig's defaults) and prints the
summary table plus the uncertainty signal that makes it work.
"""

import numpy as np

from mcde.bench import SCENARIO_MEMBERS, ScenarioConfig, band_shift_scenario, stats, write_report

config = ScenarioConfig(eval_per_band=60, nu=15)
report = band_shift_scenario(config)

# Mean and worst-quarter recovery error, in degrees.  Each single
# member is dragged down by its off-band half; the log-variant fusion
# beats both on the mean and, far more visibly, on the worst quarter.
print(f"{'method':>16} {'mean':>7} {'median':>7} {'worst25':>8}")
for (method, metric), errors in report.errors.items():
    if metric == "recovery":
        s = stats(errors)
        print(f"{method:>16} {s.mean:7.2f} {s.median:7.2f} {s.worst25_mean:8.2f}")

# Why it works: SCENARIO_MEMBERS pairs each member with its home band,
# and the evaluation set holds eval_per_band scenes of each band, in
# the table's order.  Each member's total uncertainty mu is markedly
# larger on foreign scenes.
sample_band = np.repeat([band for _, band in SCENARIO_MEMBERS], config.eval_per_band)
for (name, mu), (_, band) in zip(report.uncertainties.items(), SCENARIO_MEMBERS):
    home, away = mu[sample_band == band], mu[sample_band != band]
    print(f"\n{name}: median mu at home {np.median(home):.2e}, "
          f"abroad {np.median(away):.2e} "
          f"(ratio {np.median(away) / np.median(home):.1f}x)")

# The ideal row is the oracle lower bound from demo 04: it selects the
# per-scene best member using the ground truth.  The gap between ideal
# and mcde-log is the price of having to infer familiarity from the
# dropout spread instead of peeking at the answer.

# Reports can be flattened to a directory of CSV/JSON files, rerunnable
# byte for byte; the command-line equivalent over a saved dataset is
#   mcde bench --data data/full --out report --k 10
write_report(report, "demo_report")
print("\nwrote demo_report/ (config.json, summary.csv, per_sample.csv,"
      " uncertainty_per_sample.csv)")

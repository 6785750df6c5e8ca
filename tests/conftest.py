"""Shared pytest hooks.

The suite in test_acceptance.py is the release gate.  The terminal
summary prints one PASS/FAIL line per criterion so the gate can be
read at a glance without scanning the full test list.

Property tests draw the same examples on every run (a derandomized
hypothesis profile with no example database), so the suite's outcome
does not depend on the run and every failure reproduces.
"""

from hypothesis import settings

settings.register_profile("mcde", derandomize=True, database=None, deadline=None)
settings.load_profile("mcde")

CRITERIA = {
    "test_metric_correctness": "angular error metrics match closed-form oracles",
    "test_spherical_roundtrip": "spherical coordinates invert to 1e-9",
    "test_gradient_check": "analytic gradients match central differences",
    "test_mc_reduction": "MC reduction equals brute-force mean/std",
    "test_ensemble_invariants": "fusion invariants and the two-member hand example",
    "test_oracle_dominance": "ideal row dominates every single model",
    "test_qualitative_band_shift": "fused log-variant beats both members off-domain",
    "test_cmd_bench_determinism": "benchmark reports byte-identical across workers",
    "test_cmd_bench_blas_threads": "benchmark reports byte-identical across BLAS threads",
    "test_stats_oracle": "summary statistics oracle and CSV recomputation",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome, status in (("failed", "FAIL"), ("error", "FAIL"), ("passed", "PASS")):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if outcome == "passed" and getattr(report, "when", "call") != "call":
                continue
            name = nodeid.split("::")[-1].split("[")[0]
            if name in CRITERIA and name not in results:
                results[name] = status
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for name, label in CRITERIA.items():
        if name in results:
            terminalreporter.write_line(f"ACCEPTANCE {results[name]}: {label} ({name})")

"""Correctness checks computed apart from the library.

Every check here re-derives a result with its own numpy code, from the
scene pixels, the labels and the report files, or tests a property the
method must have.  None compares against a stored copy of earlier
output.  Each function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

STAT_FIELDS = (
    "best25_mean",
    "mean",
    "median",
    "trimean",
    "worst25_mean",
    "worst10_mean",
    "worst5_mean",
)
NON_MEMBERS = {"grey-world", "shades-of-grey", "mcde-linear", "mcde-log", "ideal"}
# Floors of the confidence map, part of the method's definition.
SIGMA_FLOOR = 1e-12
CONFIDENCE_FLOOR = 1e-6
REL_TOL = 1e-9


def close(a, b, tol=REL_TOL) -> bool:
    """Every element of ``a`` lies within ``tol * (|b| + 1e-6)`` of ``b``."""
    b = np.asarray(b)
    return bool(np.all(np.abs(np.asarray(a) - b) <= tol * (np.abs(b) + 1e-6)))


def seven_stats(errors) -> dict:
    """The seven summary statistics, from their definitions.

    Quartiles interpolate linearly at position q * (n - 1); tail means
    average the ceil(q * n) smallest or largest values.
    """
    x = np.sort(np.asarray(errors, dtype=np.float64))
    n = x.size

    def quantile(q):
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, n - 1)
        return x[lo] + (x[hi] - x[lo]) * (pos - lo)

    def tail(num, den):
        return -((-n * num) // den)

    q1, q2, q3 = quantile(0.25), quantile(0.5), quantile(0.75)
    return {
        "best25_mean": x[: tail(1, 4)].sum() / tail(1, 4),
        "mean": x.sum() / n,
        "median": q2,
        "trimean": (q1 + 2.0 * q2 + q3) / 4.0,
        "worst25_mean": x[-tail(1, 4):].sum() / tail(1, 4),
        "worst10_mean": x[-tail(1, 10):].sum() / tail(1, 10),
        "worst5_mean": x[-tail(1, 20):].sum() / tail(1, 20),
    }


def angle_deg(a, b) -> np.ndarray:
    """Angle between rows of ``a`` and ``b`` in degrees."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    cos = np.einsum("ij,ij->i", a, b) / np.sqrt(
        np.einsum("ij,ij->i", a, a) * np.einsum("ij,ij->i", b, b)
    )
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))


def read_per_sample(report_dir) -> dict:
    """(method, metric) -> {sample id: error} from per_sample.csv."""
    table: dict = {}
    with open(Path(report_dir) / "per_sample.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["method"], row["metric"])
            table.setdefault(key, {})[int(row["sample"])] = float(row["error_deg"])
    return table


def read_summary(report_dir) -> dict:
    """(method, metric) -> {statistic: value} from summary.csv."""
    with open(Path(report_dir) / "summary.csv", newline="", encoding="utf-8") as fh:
        return {
            (row["method"], row["metric"]): {f: float(row[f]) for f in STAT_FIELDS}
            for row in csv.DictReader(fh)
        }


def check_report(report_dir) -> list[str]:
    """summary.csv against per_sample.csv, and the oracle row's bound."""
    problems = []
    per_sample = read_per_sample(report_dir)
    summary = read_summary(report_dir)
    if set(per_sample) != set(summary):
        problems.append("summary.csv and per_sample.csv list different rows")
    for key, errors in per_sample.items():
        if key not in summary:
            continue
        expected = seven_stats(list(errors.values()))
        for field in STAT_FIELDS:
            if not close(summary[key][field], expected[field]):
                problems.append(
                    f"summary {key} {field}: {summary[key][field]!r} != {expected[field]!r}"
                )
    members = sorted({m for m, _ in per_sample} - NON_MEMBERS)
    if not members:
        problems.append("no member rows in per_sample.csv")
    for metric in sorted({metric for _, metric in per_sample}):
        ideal = per_sample.get(("ideal", metric), {})
        for member in members:
            errors = per_sample[(member, metric)]
            worse = [i for i, e in ideal.items() if e > errors[i]]
            if worse:
                problems.append(
                    f"ideal {metric} error above {member} on samples {worse[:5]}"
                )
    return problems


def check_grey_world(report_dir, pixels, labels) -> list[str]:
    """Grey-world recovery errors recomputed from the pixels and labels."""
    errors = read_per_sample(report_dir).get(("grey-world", "recovery"), {})
    if len(errors) != len(labels):
        return [f"{len(errors)} grey-world rows for {len(labels)} scenes"]
    estimate = np.stack(
        [np.asarray(p, dtype=np.float64).reshape(-1, 3).mean(axis=0) for p in pixels]
    )
    expected = angle_deg(labels, estimate)
    reported = np.array([errors[i] for i in range(len(labels))])
    bad = np.flatnonzero(np.abs(reported - expected) > 1e-6)
    if bad.size:
        return [f"grey-world recovery error differs on samples {bad[:5].tolist()}"]
    return []


def read_dataset(path):
    """Raw pixels and labels of a dataset directory, parsed without mcde."""
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    shape = tuple(manifest["pixel_shape"])
    labels = np.loadtxt(root / "labels.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    pixels = [
        np.fromfile(root / name, dtype="<f4").reshape(shape)
        for name in manifest["scene_files"]
    ]
    return pixels, labels


def spherical(v) -> tuple[np.ndarray, np.ndarray]:
    v = np.atleast_2d(v)
    return np.arctan2(v[:, 1], v[:, 0]), np.arctan2(np.hypot(v[:, 0], v[:, 1]), v[:, 2])


def check_fused(result) -> list[str]:
    """Properties every log-variant fused result must have."""
    problems = []
    fused = np.asarray(result.fused)
    means = np.stack([e.mean for e in result.estimates])
    mus = np.array([e.mu for e in result.estimates])
    weights = np.asarray(result.weights)
    if not (np.all(fused > 0.0) and abs(np.linalg.norm(fused) - 1.0) < 1e-12):
        problems.append("fused estimate is not a positive unit vector")
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-12:
        problems.append("fusion weights are not on the simplex")
    raw = np.maximum(np.log(1.0 / np.maximum(mus, SIGMA_FLOOR)), CONFIDENCE_FLOOR)
    if not close(weights, raw / raw.sum(), 1e-12):
        problems.append("fusion weights do not follow the members' spreads")
    phi, varphi = spherical(fused)
    m_phi, m_varphi = spherical(means)
    eps = 1e-12
    for name, angle, members in (("azimuth", phi, m_phi), ("inclination", varphi, m_varphi)):
        if not members.min() - eps <= angle[0] <= members.max() + eps:
            problems.append(f"fused {name} outside the members' envelope")
    expected = np.array([
        np.sin(weights @ m_varphi) * np.cos(weights @ m_phi),
        np.sin(weights @ m_varphi) * np.sin(weights @ m_phi),
        np.cos(weights @ m_varphi),
    ])
    if not close(fused, expected, 1e-12):
        problems.append("fused estimate is not the weighted spherical mean")
    return problems


def check_mc(estimate, passes) -> list[str]:
    """MC mean and population spread redone from the per-pass outputs."""
    outs = np.stack(passes)
    raw = outs.mean(axis=0)
    sigma = np.sqrt(((outs - raw) ** 2).mean(axis=0))
    if np.all(outs == outs[0]):
        raw, sigma = outs[0], np.zeros(3)
    problems = []
    if not close(estimate.mean, raw / np.linalg.norm(raw), 1e-12):
        problems.append("MC mean differs from the mean of the passes")
    if not close(estimate.sigma, sigma, 1e-9):
        problems.append("MC spread differs from the population spread of the passes")
    if not close(estimate.mu, float(np.prod(sigma)), 1e-9):
        problems.append("MC uncertainty is not the product of the spreads")
    return problems

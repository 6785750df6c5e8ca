"""The demos' imports from mcde resolve, and the training-free demos run.

No other test runs ``demos/``, so a public name removed from the
package, or a changed signature, would otherwise break a demo silently.
Every demo is parsed; the ones that train nothing (about 0.2 s each)
also run to the end, and so does demo 05, which reads a bench report's
fields and takes about 2 s.  Demo 03 trains for longer, so it is only
parsed.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TRAINING_FREE = ("01_color_basics.py", "02_synthetic_data_and_baselines.py",
                 "04_uncertainty_weighted_fusion.py")


def mcde_imports(path):
    """(module, name) for every ``from mcde... import name`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "mcde"
        for alias in node.names
    ]


def resolves(module_name, name) -> bool:
    """True when ``from module_name import name`` would succeed."""
    if hasattr(importlib.import_module(module_name), name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(path):
    names = mcde_imports(path)
    assert names, f"{path.name} imports nothing from mcde"
    missing = [f"{module}.{name}" for module, name in names if not resolves(module, name)]
    assert not missing, f"{path.name} imports missing names: {missing}"


@pytest.mark.parametrize("name", TRAINING_FREE)
def test_training_free_demo_runs(name, tmp_path):
    """Exits 0 and writes no file to its working directory."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert not any(tmp_path.iterdir())


def test_band_shift_demo_runs(tmp_path):
    """Demo 05 exits 0 and writes only demo_report/, with the four report files."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "05_band_shift_benchmark.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["demo_report"]
    assert sorted(p.name for p in (tmp_path / "demo_report").iterdir()) == [
        "config.json", "per_sample.csv", "summary.csv", "uncertainty_per_sample.csv",
    ]

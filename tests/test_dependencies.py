"""The library is numpy-only: it imports the standard library, numpy and itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mcde"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mcde"}


def absolute_imports(path):
    """Top-level names of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_module_imports_only_stdlib_numpy_and_mcde():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "nn" / "network.py" in paths
    foreign = {
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in paths
        for name in absolute_imports(path)
        if name not in ALLOWED
    }
    assert not foreign


def _module_bindings(tree):
    """Names bound at module level, and the names the imports bind."""
    bound, imported = set(), set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            names = {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            bound |= names
            imported |= names
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        else:
            pending += [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
    return bound, imported


def _exported(tree):
    """The string entries of the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_exports_are_defined_and_imports_are_used():
    """A stand-in for pyflakes: every ``__all__`` entry is bound in its
    module, and every imported name is read somewhere in the module or
    exported (``from __future__`` imports aside)."""
    problems = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound, imported = _module_bindings(tree)
        exported = _exported(tree)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        where = path.relative_to(PACKAGE)
        problems += [f"{where}: __all__ names undefined {name!r}" for name in exported - bound]
        problems += [f"{where}: unused import {name!r}" for name in imported - read - exported]
    assert not problems


def test_no_module_imports_a_private_name():
    """A name that starts with ``_`` is private to its module: no other
    ``mcde`` module imports it, so what modules share is public."""
    private = [
        f"{path.relative_to(PACKAGE)}: {alias.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "mcde")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private


def test_every_bound_is_named_in_the_readme():
    """Each module-level ``MAX_*`` constant appears in README.md under its
    full dotted name, e.g. ``mcde.mc.MAX_NU``."""
    bounds = {
        ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts) + "." + target.id
        for path in PACKAGE.rglob("*.py")
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    }
    assert "mcde.mc.MAX_NU" in bounds
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    assert {bound for bound in bounds if bound not in readme} == set()


# Loaded by the first call that forks a worker pool, never by an import:
# a process that runs everything in process does not load them.
POOL_MODULES = ("concurrent.futures", "multiprocessing")


def _module_level_imports(tree):
    """Dotted names that the module's own top-level code imports: function
    bodies aside, class bodies and ``if``/``try`` blocks included."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending += [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]


def test_no_module_imports_the_pool_at_module_level():
    eager = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _module_level_imports(ast.parse(path.read_text(), filename=str(path)))
        if any(name == pool or name.startswith(pool + ".") for pool in POOL_MODULES)
    ]
    assert not eager


def test_importing_leaves_the_pool_unloaded():
    """A fresh interpreter that imports ``mcde``, ``mcde.bench`` or
    ``mcde.cli`` has loaded neither ``concurrent.futures`` nor
    ``multiprocessing``."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = {}
    for module in ("mcde", "mcde.bench", "mcde.cli"):
        code = (
            f"import sys, {module}; "
            f"print(sorted(m for m in sys.modules if m.startswith({POOL_MODULES!r})))"
        )
        loaded[module] = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
    assert loaded == dict.fromkeys(loaded, "[]\n")


# Writes and prints reports, then says whether ``numpy.ma`` is loaded.
# numpy 2.4.6's np.quantile, np.percentile, np.median, np.unique, np.isin
# and their nan forms import it, at about 1.25 MiB of RSS and 10-16 ms.
REPORT_UNLOADED = '''
import sys
from pathlib import Path

import numpy as np

from mcde import cli
from mcde.bench import BenchReport, stats, write_report

out = Path(sys.argv[1])
stats([3.0, 1.0, 2.0])
errors = {("grey-world", "recovery"): np.array([1.0, 2.0])}
write_report(BenchReport(config={}, errors=errors, uncertainties={}, loss_traces={}), out / "r")
flags = ["--k", "2", "--nu", "2", "--epochs", "1", "--channels", "4"]
assert cli.main(["gen-data", "--scenes", "4", "--width", "8", "--height", "8",
                 "--out", str(out / "d")]) == 0
assert cli.main(["bench", "--data", str(out / "d"), "--out", str(out / "b"), *flags]) == 0
print("numpy.ma" in sys.modules)
'''


def test_reports_leave_numpy_ma_unloaded(tmp_path):
    """A fresh interpreter that runs ``stats``, writes a small report and
    prints ``mcde bench``'s table has not loaded ``numpy.ma``."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", REPORT_UNLOADED, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout.splitlines()[-1] == "False"
    assert "   g-net " in run.stdout

"""The library is numpy-only: it imports the standard library, numpy and itself."""

import ast
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

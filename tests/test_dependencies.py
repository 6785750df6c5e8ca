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

"""The demos' imports from mcde resolve.

No other test runs ``demos/``, so a public name removed from the
package would otherwise break a demo silently.  Each demo is parsed,
not run: the check costs no training time.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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

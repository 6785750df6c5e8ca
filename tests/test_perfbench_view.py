"""The benchmark's view of the library: every name that ``perfbench``
patches, imports or reads still exists, so a rename fails here and not
as a benchmark whose every traced run fails.

Both benchmark files are read with ``ast``; neither is imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def tree(name):
    path = PERFBENCH / name
    return ast.parse(path.read_text(), filename=str(path))


def traced_functions():
    """The (module, attribute, span) triples of ``tracer.FUNCTIONS``."""
    for node in tree("tracer.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no FUNCTIONS")


def mcde_imports(name):
    """(module, name or None) for every import of mcde in one file."""
    for node in ast.walk(tree(name)):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "mcde":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "mcde")


def test_every_traced_function_resolves():
    functions = traced_functions()
    assert functions
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in functions
        if not inspect.isfunction(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing


@pytest.mark.parametrize("name", ["run.py", "tracer.py"])
def test_every_name_imported_from_mcde_exists(name):
    imports = list(mcde_imports(name))
    assert imports
    missing = [
        f"{module}.{attr}"
        for module, attr in imports  # import_module raises for a module that is gone
        if not hasattr(importlib.import_module(module), attr or "__name__")
    ]
    assert not missing


def test_every_bench_attribute_that_run_reads_exists():
    import mcde.bench

    assert ("mcde.bench", None) in mcde_imports("run.py")  # `import mcde.bench as bench`
    read = {
        node.attr
        for node in ast.walk(tree("run.py"))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "bench"
    }
    assert read
    missing = sorted(attr for attr in read if not hasattr(mcde.bench, attr))
    assert not missing

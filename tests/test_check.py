"""``mcde._check``: one type and bound check for every numeric field."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from mcde._check import check_int, check_real
from mcde.bench import BenchConfig, TrainableSpec
from mcde.datagen import GenConfig
from mcde.nn.training import TrainConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mcde"

# Modules that keep a bool test of their own: the helpers, PassSeed's
# per-pass key check (nn/network.py), the manifest's field table
# (datagen.py) and the config file's JSON kinds (cli.py).
BOOL_TESTS_ALLOWED = {"_check.py", "nn/network.py", "datagen.py", "cli.py"}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: check_int("n", 3.0, 0), TypeError, "n must be an integer, got 3.0"),
        (lambda: check_int("n", True, 0), TypeError, "n must be an integer, got True"),
        (lambda: check_int("n", "3", 0), TypeError, "n must be an integer, got '3'"),
        (lambda: check_int("n", -1, 0), ValueError, "n must be at least 0, got -1"),
        (lambda: check_int("n", 0, 1, 10), ValueError, r"n must lie in \[1, 10\], got 0"),
        (lambda: check_int("n", 11, 1, 10), ValueError, r"n must lie in \[1, 10\], got 11"),
        (lambda: check_real("x", True, 0.0), TypeError, "x must be a real number, got True"),
        (lambda: check_real("x", "1", 0.0), TypeError, "x must be a real number, got '1'"),
        (lambda: check_real("x", None, 0.0), TypeError, "x must be a real number, got None"),
        (lambda: check_real("x", -0.5, 0.0), ValueError,
         r"x must be finite and at least 0.0, got -0.5"),
        (lambda: check_real("x", math.nan, 0.0), ValueError,
         "x must be finite and at least 0.0, got nan"),
        (lambda: check_real("x", math.inf, 0.0), ValueError,
         "x must be finite and at least 0.0, got inf"),
        (lambda: check_real("x", -math.inf, 0.0), ValueError,
         "x must be finite and at least 0.0, got -inf"),
        (lambda: check_real("x", 1.0, 0.0, 1.0), ValueError,
         r"x must lie in \[0.0, 1.0\), got 1.0"),
        (lambda: check_real("x", math.nan, 0.0, 1.0), ValueError,
         r"x must lie in \[0.0, 1.0\), got nan"),
        (lambda: TrainableSpec(name="g", arch="g-net", dropout_rate="x"), TypeError,
         "dropout_rate must be a real number, got 'x'"),
        (lambda: TrainConfig(epochs=np.int64(2)), TypeError, "epochs must be an integer, got "),
        (lambda: GenConfig(n_scenes=np.int32(2)), TypeError, "n_scenes must be an integer, got "),
        (lambda: BenchConfig(workers=np.int64(2)), TypeError, "workers must be an integer, got "),
    ],
    ids=["int-float", "int-bool", "int-str", "int-below", "int-below-range", "int-above-range",
         "real-bool", "real-str", "real-none", "real-below", "real-nan", "real-inf",
         "real-minus-inf", "real-at-below", "real-nan-below", "spec-dropout-str",
         "train-numpy-int", "gen-numpy-int", "bench-numpy-int"],
)
def test_rejection_names_the_field(call, error, message):
    with pytest.raises(error, match=f"^{message}"):
        call()


def test_values_at_their_bounds_pass():
    check_int("n", 0, 0)
    check_int("n", 1, 1, 10)
    check_int("n", 10, 1, 10)
    check_real("x", 1, 1.0)
    check_real("x", np.float64(0.0), 0.0)
    check_real("x", 0.0, 0.0, 1.0)
    check_real("x", 0.999, 0.0, 1.0)


def bool_tests(path):
    """Line numbers of every ``isinstance(..., bool)`` call in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1]))
        ):
            yield node.lineno


def test_only_the_check_module_tests_numbers_for_bool():
    """An integer or real field is checked by ``mcde._check``, not by a
    hand-written copy of its bool test."""
    paths = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "_check.py" in paths
    copies = [
        f"{path.relative_to(PACKAGE).as_posix()}:{line}"
        for path in paths
        if path.relative_to(PACKAGE).as_posix() not in BOOL_TESTS_ALLOWED
        for line in bool_tests(path)
    ]
    assert not copies

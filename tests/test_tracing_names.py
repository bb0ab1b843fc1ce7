"""The traced benchmark run finds every package name it wraps.

``perfbench/tracing.py`` looks its functions up by name, so renaming or
deleting one breaks the traced run long after the package tests pass.
The module is compiled from its source text, so no bytecode cache is
written next to it.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

from throttlekit import forcing

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, attr",
                         [(m, a) for _, m, a in tracing.SPANNED])
def test_spanned_name_resolves(module, attr):
    owner = importlib.import_module(f"throttlekit.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    assert not inspect.isgeneratorfunction(owner)


@pytest.mark.parametrize("attr", [a for a, _ in tracing.STEP_COUNTERS]
                         + ["_pt"])
def test_counted_kernel_name_resolves(attr):
    assert callable(getattr(forcing, attr))


def test_infinity_resolves():
    assert forcing.INFINITY == float("inf")

"""The traced benchmark run finds every package name it wraps.

``perfbench/tracing.py`` looks its functions up by name, so renaming or
deleting one breaks the traced run long after the package tests pass.
Graph surgery is wrapped on the class, so every caller must look the
methods up when it runs.  The module is compiled from its source text,
so no bytecode cache is written next to it.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

from throttlekit import forcing, suites
from throttlekit.families import OPERATIONS, cycle, parse_graph_expression
from throttlekit.graph import Graph

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


# The reference form each operation suffix takes on C4, and the Graph
# method its build calls (None for ae, which builds the graph itself).
_SUFFIX_CALLS = {"dv": ("0", "delete_vertex"), "de": ("0-1", "delete_edge"),
                 "ae": ("0-2", None), "ce": ("0-1", "contract_edge"),
                 "se": ("0-1", "subdivide_edge")}


def test_surgeries_reach_the_class_wrappers(monkeypatch):
    # The traced run wraps the surgery methods on the Graph class; a
    # build that held a method captured at import would bypass them.
    methods = [a.split(".", 1)[1] for _, _, a in tracing.SPANNED
               if a.startswith("Graph.")]
    calls = dict.fromkeys(methods, 0)

    def counted(name, orig):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    for name in methods:
        monkeypatch.setattr(Graph, name, counted(name, getattr(Graph, name)))
    suites._operations(cycle(4))
    assert calls == dict.fromkeys(methods, 4)
    assert set(_SUFFIX_CALLS) == set(OPERATIONS)
    for op, (ref, method) in _SUFFIX_CALLS.items():
        calls.update(dict.fromkeys(methods, 0))
        parse_graph_expression(f"C4/{op}:{ref}")
        expected = dict.fromkeys(methods, 0)
        if method is not None:
            expected[method] = 1
        assert calls == expected, op

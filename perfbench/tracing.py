"""Spans and counters around throttlekit's layer functions.

Only the traced run imports this module.  ``Tracer.install`` replaces
each listed function with a wrapper in every throttlekit namespace that
binds it, so callers that imported the name get the wrapper too.  A
span records its function, parent span, start and end; spans stay in
memory until ``dump`` writes them out, and ``layer_metrics`` derives
counts and self times from the written file.

The propagation kernel is too hot for one span per call (a single
sweep-surgery round makes nearly three million ``_pt`` calls), so
``_pt`` and the three step rules are counted instead.  The time spent
in ``_pt`` is charged to the span that called it as forcing-layer time.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import math
import sys
import time

# (layer, module, attribute) of every function that gets a span.
SPANNED = (
    [("graph", "graph", f"Graph.{name}") for name in
     ("delete_vertex", "delete_edge", "contract_edge", "subdivide_edge")]
    + [("graphio", "graphio", name) for name in
       ("parse_graph6", "format_graph6")]
    + [("iso", "iso", name) for name in
       ("invariant_key", "_iso_adj", "find_isomorphism", "are_isomorphic")]
    + [("families", "families", name) for name in
       ("_iso_classes", "parse_graph_expression")]
    + [("forcing", "forcing", name) for name in
       ("step", "propagate", "propagation_time", "is_forcing_set",
        "forcing_number", "k_propagation_time", "graph_propagation_time")]
    + [("domination", "domination", name) for name in
       ("is_dominating_set", "domination_number",
        "edge_maximum_dominating_sets", "optimal_dominating_sets",
        "external_private_neighbors", "optimal_dominating_set")]
    + [("throttling", "throttling", name) for name in
       ("throttling_of_set", "throttling_at_size", "throttling_number",
        "least_size_with_propagation_time", "one_step_forcing_number",
        "is_matched_sum")]
    + [("constructive", "constructive", name) for name in
       ("power_domination_certificate",
        "extremal_product_throttling_report")]
    + [("suites", "suites", name) for name in ("build_cases", "run_case")]
    + [("report", "report", name) for name in ("run_suite", "run_claims")]
)
STEP_COUNTERS = (("_standard_step", "steps_zf"), ("_psd_step", "steps_psd"),
                 ("_domination_step", "steps_pd"))

_SPAN_DTYPES = (("parent", "q"), ("name", "q"), ("start", "d"), ("end", "d"),
                ("kernel", "d"))


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = ["root"]
        self.layers: list[str] = ["root"]
        self.cols = {key: array.array(code) for key, code in _SPAN_DTYPES}
        self.counters = dict.fromkeys(
            ["pt_evals", "pt_capped", "pt_stalled", "iso_matches"]
            + [key for _, key in STEP_COUNTERS], 0)
        self._stack = [0]
        self._open(0, 0)

    def _open(self, parent: int, name: int) -> int:
        c = self.cols
        index = len(c["start"])
        c["parent"].append(parent)
        c["name"].append(name)
        c["start"].append(time.perf_counter())
        c["end"].append(0.0)
        c["kernel"].append(0.0)
        return index

    def _span(self, fn, layer: str, label: str):
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{label} is a generator; a span would only "
                            "time its creation")
        name = len(self.labels)
        self.labels.append(label)
        self.layers.append(layer)
        end, stack, clock, open_ = (self.cols["end"], self._stack,
                                    time.perf_counter, self._open)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_(stack[-1], name)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end[index] = clock()
        return wrapper

    def _pt(self, fn, infinity: float):
        kernel, stack, clock, counters = (self.cols["kernel"], self._stack,
                                          time.perf_counter, self.counters)

        @functools.wraps(fn)
        def wrapper(rule, adj, n, mask, cap=None):
            t0 = clock()
            result = fn(rule, adj, n, mask, cap)
            kernel[stack[-1]] += clock() - t0
            counters["pt_evals"] += 1
            if result is None:
                counters["pt_capped"] += 1
            elif result == infinity:
                counters["pt_stalled"] += 1
            return result
        return wrapper

    def _count(self, fn, key: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args):
            counters[key] += 1
            return fn(*args)
        return wrapper

    def _count_matches(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args):
            result = fn(*args)
            if result is not None:
                counters["iso_matches"] += 1
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever throttlekit binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "throttlekit" or name.startswith("throttlekit.")]
        forcing = sys.modules["throttlekit.forcing"]

        def rebind(orig, wrapper) -> None:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)

        for layer, module, attr in SPANNED:
            owner = sys.modules[f"throttlekit.{module}"]
            if attr.startswith("Graph."):
                cls, method = owner.Graph, attr.split(".", 1)[1]
                setattr(cls, method,
                        self._span(getattr(cls, method), layer, attr))
                continue
            orig = getattr(owner, attr)
            wrapper = self._span(orig, layer, attr)
            if attr == "_iso_adj":
                wrapper = self._count_matches(wrapper)
            rebind(orig, wrapper)
        rebind(forcing._pt, self._pt(forcing._pt, forcing.INFINITY))
        for attr, key in STEP_COUNTERS:
            orig = getattr(forcing, attr)
            rebind(orig, self._count(orig, key))

    def dump(self, path: str) -> None:
        """Close the root span and write spans and counters to ``path``
        (metadata) and ``path + ".bin"`` (span columns)."""
        self.cols["end"][0] = time.perf_counter()
        with open(path + ".bin", "wb") as fh:
            for key, _ in _SPAN_DTYPES:
                self.cols[key].tofile(fh)
        with open(path, "w") as fh:
            json.dump({"labels": self.labels, "layers": self.layers,
                       "spans": len(self.cols["start"]),
                       "columns": [list(pair) for pair in _SPAN_DTYPES],
                       "counters": self.counters}, fh)


def _load(path: str) -> tuple[dict, dict]:
    with open(path) as fh:
        meta = json.load(fh)
    cols = {}
    with open(path + ".bin", "rb") as fh:
        for key, code in meta["columns"]:
            cols[key] = array.array(code)
            cols[key].fromfile(fh, meta["spans"])
    return meta, cols


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer counts and self times from one dumped trace.

    A span's self time is its duration less its child spans and the
    kernel time charged to it; kernel time counts as forcing self time.
    """
    meta, cols = _load(path)
    labels, layers, counters = meta["labels"], meta["layers"], meta["counters"]
    parent, name, kernel = cols["parent"], cols["name"], cols["kernel"]
    duration = [e - s for s, e in zip(cols["start"], cols["end"])]
    self_s = [d - k for d, k in zip(duration, kernel)]
    for index in range(1, len(duration)):
        self_s[parent[index]] -= duration[index]
    calls = dict.fromkeys(labels, 0)
    label_self = dict.fromkeys(labels, 0.0)
    layer_self = dict.fromkeys(layers, 0.0)
    layer_calls = dict.fromkeys(layers, 0)
    for index in range(1, len(duration)):
        label = labels[name[index]]
        calls[label] += 1
        label_self[label] += self_s[index]
        layer_self[layers[name[index]]] += self_s[index]
        layer_calls[layers[name[index]]] += 1
    layer_self["forcing"] += math.fsum(kernel)

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    evals = counters["pt_evals"]
    useful = evals - counters["pt_capped"] - counters["pt_stalled"]
    return {
        "forcing.pt_evals": evals,
        "forcing.pt_capped": counters["pt_capped"],
        "forcing.pt_stalled": counters["pt_stalled"],
        "forcing.useful_ratio": ratio(useful, evals),
        "forcing.steps_zf": counters["steps_zf"],
        "forcing.steps_psd": counters["steps_psd"],
        "forcing.steps_pd": counters["steps_pd"],
        "forcing.self_s": layer_self["forcing"],
        "throttling.calls": layer_calls["throttling"],
        "throttling.self_s": layer_self["throttling"],
        "graph.surgery_calls": layer_calls["graph"],
        "graph.surgery_self_s": layer_self["graph"],
        "iso.key_calls": calls["invariant_key"],
        "iso.tests": calls["_iso_adj"],
        "iso.matches": counters["iso_matches"],
        "iso.match_ratio": ratio(counters["iso_matches"], calls["_iso_adj"]),
        "iso.self_s": layer_self["iso"],
        "families.enumerate_self_s": label_self["_iso_classes"],
        "families.expr_self_s": label_self["parse_graph_expression"],
        "graphio.calls": layer_calls["graphio"],
        "graphio.self_s": layer_self["graphio"],
        "suites.cases": calls["run_case"],
        "suites.build_self_s": label_self["build_cases"],
        "suites.runner_self_s": label_self["run_case"],
        "domination.calls": layer_calls["domination"],
        "domination.self_s": layer_self["domination"],
        "constructive.calls": layer_calls["constructive"],
        "constructive.self_s": layer_self["constructive"],
        "report.self_s": layer_self["report"],
    }

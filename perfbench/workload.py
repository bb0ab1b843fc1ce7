"""One round of one benchmark workload, run in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --out FILE
                                  [--probe] [--trace FILE]

run.py starts this once per round and once per set-up probe.  The
process imports throttlekit from the checkout's src/, builds the
workload's inputs, notes the monotonic clock just before its first
timed operation, runs the round and writes its timings and outputs to
FILE as JSON.  With --probe it stops at that clock reading.  With
--trace it wraps the layer functions first and dumps the spans after
the timed region.  Correctness checks run later, in run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
POOL_PATH = os.path.join(HERE, "pool.json")

RULES = ("zf", "psd", "pd")
KINDS = ("sum", "prodx", "prodstar")
# (suite, nmax, budget) per sweep; a budget of None runs every case.
# The surgery budgets are sized so two rounds fit in a run and lemma3.1's
# unpruned scans take about a third of the time.  Its cases are then
# three quarters of the operations, so op_p50_s falls among them.
SWEEPS = {
    "sweep-surgery": (("prop3.2", 7, 120), ("prop3.12", 7, 250),
                      ("lemma3.1", 6, 1300)),
    "sweep-order8": (("ore", 8, None), ("thm2.4", 8, None),
                     ("thm2.7", 8, None)),
}
WORKLOADS = ("compute-mid",) + tuple(SWEEPS)


def monotonic() -> float:
    """System-wide clock, comparable between run.py and this process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_throttlekit():
    sys.path.insert(0, SRC)
    import throttlekit
    if not os.path.abspath(throttlekit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"throttlekit came from {throttlekit.__file__}, "
                         f"not from {SRC}")
    return throttlekit


def load_pool() -> dict[str, dict]:
    """The compute-mid pool entries by id, in file order."""
    with open(POOL_PATH) as fh:
        return {entry["id"]: entry for entry in json.load(fh)["graphs"]}


def pick_pool_graphs(seed: int) -> list[dict]:
    """One labeling of every base graph in the pool, in seeded order."""
    by_base: dict[str, list[dict]] = {}
    for entry in load_pool().values():
        by_base.setdefault(entry["id"].split("@")[0], []).append(entry)
    rng = random.Random(seed)
    chosen = [rng.choice(entries) for entries in by_base.values()]
    rng.shuffle(chosen)
    return chosen


def build_graph(tk, entry: dict):
    if entry["expr"] is None:
        return tk.Graph(entry["n"], [tuple(e) for e in entry["edges"]])
    base = tk.parse_graph_expression(entry["expr"]).graph
    perm = entry["perm"]
    return tk.Graph(base.n, [(perm[u], perm[v]) for u, v in base.edges()])


def run_compute(tk, inputs, op_times: list[float]) -> list:
    outputs = []
    clock = time.perf_counter
    for entry, g in inputs:
        for rule in RULES:
            for kind in KINDS:
                t0 = clock()
                try:
                    r = tk.throttling_number(tk.Rule(rule),
                                             tk.ThrottleKind(kind), g)
                    out = [r.value, r.size, r.propagation_time,
                           list(r.witness.members)]
                except Exception as exc:  # counted as a failed operation
                    out = f"error: {exc!r}"
                op_times.append(clock() - t0)
                outputs.append([entry["id"], rule, kind, out])
    return outputs


def run_sweep(specs, seed: int, op_times: list[float]) -> dict:
    # run_suite looks run_case up in its module on every call; timing
    # that call times each case from outside, as the worker pool sees it.
    report = sys.modules["throttlekit.report"]
    run_case = report.run_case
    clock = time.perf_counter

    def timed_case(case):
        t0 = clock()
        record = run_case(case)
        op_times.append(clock() - t0)
        return record

    report.run_case = timed_case
    try:
        out = {}
        for name, nmax, budget in specs:
            rep = report.run_suite(name, nmax=nmax, budget=budget, seed=seed,
                                   workers=1)
            out[name] = [[r["id"], r["graph6"], r["passed"], r["computed"]]
                         for r in rep.records]
        return out
    finally:
        report.run_case = run_case


def sweep_facts(tk, specs) -> dict:
    """Untimed counts the checks compare with the published ones: every
    case a sampled suite would build, and the graphs enumerated at the
    top order of the full suites."""
    facts = {"full_counts": {name: len(tk.build_cases(name, nmax=nmax))
                             for name, nmax, budget in specs
                             if budget is not None}}
    full = [nmax for _, nmax, budget in specs if budget is None]
    if full:
        graphs = list(tk.enumerate_graphs(max(full)))
        facts["enumerated"] = [max(full), len(graphs),
                               sum(g.is_connected() for g in graphs)]
    return facts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace")
    args = ap.parse_args()

    tk = import_throttlekit()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    result: dict = {}
    inputs = []
    if args.workload == "compute-mid":
        inputs = [(e, build_graph(tk, e)) for e in pick_pool_graphs(args.seed)]
    result["setup_end"] = monotonic()
    if not args.probe:
        op_times: list[float] = []
        start = time.perf_counter()
        if args.workload == "compute-mid":
            result["outputs"] = run_compute(tk, inputs, op_times)
        else:
            result["records"] = run_sweep(SWEEPS[args.workload], args.seed,
                                          op_times)
        result["timed_s"] = time.perf_counter() - start
        result["op_s"] = op_times
        if tracer is not None:
            tracer.dump(args.trace)
        if args.workload == "compute-mid":
            result["edges"] = {e["id"]: [list(p) for p in g.edges()]
                               for e, g in inputs}
        else:
            result.update(sweep_facts(tk, SWEEPS[args.workload]))
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

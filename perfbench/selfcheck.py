"""Quick self-check of the benchmark, in a few seconds.

    python3 perfbench/selfcheck.py

Run from the repository root.  It checks the oracle against direct
simulation, runs every workload's code path at a tiny scale (orders up
to 8) with every check run.py applies, and confirms that each check
rejects a deliberately corrupted output.  The traced path runs too.
Exit status 0 means everything passed.
"""

from __future__ import annotations

import copy
import itertools
import os
import random
import sys

import checks
import make_pool
import oracle
import tracing
import workload

SEED = 7
EXPRS = ("path:7", "cycle:6", "spider:2,2,1", "corona:K3,1", "book:2",
         "family_6n7:K2")
RANDOM_ORDERS = (7, 8)
SPECS = (("prop3.2", 5, 20), ("prop3.12", 5, 20), ("lemma3.1", 4, 40),
         ("ore", 5, None), ("thm2.4", 5, None), ("thm2.7", 5, None))
TRACE = os.path.join(workload.HERE, "out", "selfcheck", "trace.json")


def oracle_problems() -> list[str]:
    problems = []
    rng = random.Random(SEED)
    for n in (5, 6, 7):
        edges = make_pool.random_connected(n, rng)
        nbrs = oracle.neighbor_sets(n, edges)
        for rule in oracle.RULES:
            table = oracle.time_table(rule, n, nbrs)
            for k in range(n + 1):
                for s in itertools.combinations(range(n), k):
                    index = sum(1 << v for v in s)
                    if table[index] != oracle.propagation_time(rule, n, nbrs, s):
                        problems.append(f"oracle table {rule} {edges} {s}")
    n, edges = oracle.decode_graph6("GhCGGC")  # the path on 8 vertices
    degrees = sorted(sum(v in e for e in edges) for v in range(n))
    if degrees != [1, 1] + [2] * 6 or not oracle.is_connected(
            n, oracle.neighbor_sets(n, edges)):
        problems.append(f"graph6 GhCGGC decodes to {n} {edges}")
    return problems


def tiny_pool(tk) -> dict[str, dict]:
    rng = random.Random(SEED)
    bases = []
    for expr in EXPRS:
        g = tk.parse_graph_expression(expr).graph
        bases.append((expr, expr, g.edges(), g.n))
    bases += [(f"gnp{n}", None, make_pool.random_connected(n, rng), n)
              for n in RANDOM_ORDERS]
    pool = {}
    for name, expr, edges, n in bases:
        perm = list(range(n))
        rng.shuffle(perm)
        pool[f"{name}@0"] = make_pool.pool_entry(f"{name}@0", expr, n, edges,
                                                 perm)
    return pool


def compute_round(tk, pool) -> dict:
    inputs = [(e, workload.build_graph(tk, e)) for e in pool.values()]
    return {"outputs": workload.run_compute(tk, inputs, []),
            "edges": {e["id"]: [list(p) for p in g.edges()]
                      for e, g in inputs}}


def sweep_round(tk) -> dict:
    rnd = {"records": workload.run_sweep(SPECS, SEED, [])}
    rnd.update(workload.sweep_facts(tk, SPECS))
    return rnd


def expect(label: str, problems: list[str], clean: bool) -> bool:
    ok = not problems if clean else bool(problems)
    print(f"{'ok ' if ok else 'FAIL'} {label}"
          + ("" if ok or not problems else f": {problems[0]}"))
    return ok


def main() -> int:
    tk = workload.import_throttlekit()
    results = [expect("oracle agrees with direct simulation",
                      oracle_problems(), True)]

    pool = tiny_pool(tk)
    rnd = compute_round(tk, pool)
    results.append(expect("compute round passes every check",
                          checks.check_compute([rnd], pool)[2], True))
    gid, rule, kind, _ = rnd["outputs"][0]
    bad = copy.deepcopy(rnd)
    bad["outputs"][0][3][0] += 1
    results.append(expect("compute check rejects a wrong value",
                          checks.check_compute([bad], pool)[2], False))
    # The same error in the reference too: the witness re-derivation
    # must still catch it.
    bad_pool = copy.deepcopy(pool)
    bad_pool[gid]["results"][f"{rule}/{kind}"][0] += 1
    results.append(expect("compute check rejects a value its witness "
                          "does not give",
                          checks.check_compute([bad], bad_pool)[2], False))

    # The rest runs traced; nothing has enumerated graphs yet, so the
    # sweep round reaches the isomorphism layer too.
    os.makedirs(os.path.dirname(TRACE), exist_ok=True)
    tracer = tracing.Tracer()
    tracer.install()
    compute_round(tk, pool)
    rnd = sweep_round(tk)
    tracer.dump(TRACE)
    results.append(expect("sweep round passes every check",
                          checks.check_sweep(SPECS, [rnd], SEED)[2], True))
    bad = copy.deepcopy(rnd)
    bad["records"]["prop3.12"][0][3] = "value=99"
    results.append(expect("sweep check rejects a wrong stated value",
                          checks.check_sweep(SPECS, [bad], SEED)[2], False))
    bad = copy.deepcopy(rnd)
    bad["records"]["thm2.7"].pop()
    results.append(expect("sweep check rejects a missing graph",
                          checks.check_sweep(SPECS, [bad], SEED)[2], False))
    bad = copy.deepcopy(rnd)
    bad["enumerated"][1] -= 1
    results.append(expect("sweep check rejects a wrong enumeration count",
                          checks.check_sweep(SPECS, [bad], SEED)[2], False))

    metrics = tracing.layer_metrics(TRACE)
    traced = [f"{key} is 0" for key in (
        "forcing.pt_evals", "forcing.steps_zf", "forcing.steps_psd",
        "forcing.steps_pd", "throttling.calls", "graph.surgery_calls",
        "iso.tests", "families.enumerate_self_s", "families.expr_self_s",
        "graphio.calls",
        "domination.calls", "constructive.calls", "report.self_s")
        if not metrics[key]]
    cases = sum(len(records) for records in rnd["records"].values())
    if metrics["suites.cases"] != cases:
        traced.append(f"suites.cases={metrics['suites.cases']}, ran {cases}")
    results.append(expect("traced run counts every layer", traced, True))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

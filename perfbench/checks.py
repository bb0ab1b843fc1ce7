"""Correctness checks on the outputs of a run's rounds.

Every check uses only oracle.py and the published counts of graphs, so
nothing here trusts throttlekit.  Each check function returns
(attempted, failed, problems): operations run, operations that raised,
and one line per wrong output or broken property.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import oracle
from oracle import KINDS, RULES

G, C = oracle.GRAPH_COUNTS, oracle.CONNECTED_COUNTS


def _connected(n: int, edges) -> bool:
    return oracle.is_connected(n, oracle.neighbor_sets(n, edges))


def _no_isolated(n: int, edges) -> bool:
    return len({v for e in edges for v in e}) == n


def _has_edge(n: int, edges) -> bool:
    return bool(edges)


# suite: (least order, graphs of order n, cases per graph, the property
# every graph of the suite has).  Graphs without isolated vertices on n
# vertices number G(n) - G(n-1); lemma3.1 has 19 cases per graph, items
# 1-4 and 6-7 under three rules and item 5 under pd alone.
SUITES = {
    "prop3.2": (2, lambda n: C[n], 1, _connected),
    "prop3.12": (2, lambda n: G[n] - 1, 1, _has_edge),
    "lemma3.1": (2, lambda n: C[n], 19, _connected),
    "ore": (1, lambda n: G[n] - G[n - 1], 1, _no_isolated),
    "thm2.4": (3, lambda n: C[n], 1, _connected),
    "thm2.7": (1, lambda n: C[n], 1, _connected),
}
# Records re-solved by the oracle, per suite and run, and the value each
# suite's record states, as run_case formats it.
ORACLE_SAMPLE = 40
STATED = {"prop3.12": (r"value=(\d+)", "zf/prodstar"),
          "ore": (r"gamma=(\d+)", None),
          "thm2.4": (r"exact=(\d+)", "pd/prodx"),
          "thm2.7": (r"exact=(\d+)", "pd/sum")}


def graphs_per_order(name: str, nmax: int) -> dict[int, int]:
    nmin, count, _, _ = SUITES[name]
    return {n: count(n) for n in range(nmin, nmax + 1) if count(n)}


def case_count(name: str, nmax: int) -> int:
    return SUITES[name][2] * sum(graphs_per_order(name, nmax).values())


def _properties(entry: dict, values: dict) -> list[str]:
    """Theorem bounds on one connected graph's nine optima."""
    n = entry["n"]
    out = []
    if values["zf/prodx"] != n:
        out.append(f"zf prodx {values['zf/prodx']} != n={n}")
    if 7 * values["pd/prodx"] > 6 * n:
        out.append(f"pd prodx {values['pd/prodx']} > 6n/7, n={n}")
    if values["pd/sum"] > n // 3 + 2:
        out.append(f"pd sum {values['pd/sum']} > floor(n/3)+2, n={n}")
    for rule in RULES:
        # Remark 1.1: y+1 <= sum, prodx <= n and 1 <= prodstar <= n-1,
        # with y the rule's forcing number.
        y = entry["forcing"][rule]
        s, x, star = (values[f"{rule}/{kind}"] for kind in KINDS)
        if not (y + 1 <= x <= n and y + 1 <= s <= n and 1 <= star <= n - 1):
            out.append(f"{rule}: order bounds fail with forcing number {y}: "
                       f"sum={s} prodx={x} prodstar={star}")
    return out


def check_compute(rounds: list[dict],
                  pool: dict[str, dict]) -> tuple[int, int, list[str]]:
    bases = len({gid.split("@")[0] for gid in pool})
    attempted = failed = 0
    problems: list[str] = []
    for rnd in rounds:
        if len(rnd["edges"]) != bases:
            problems.append(f"{len(rnd['edges'])} graphs built, "
                            f"expected {bases}")
        for gid, edges in rnd["edges"].items():
            if sorted(edges) != pool[gid]["edges"]:
                problems.append(f"{gid}: built graph differs from the pool")
        if len(rnd["outputs"]) != 9 * bases:
            problems.append(f"{len(rnd['outputs'])} operations, "
                            f"expected {9 * bases}")
        values: dict[str, dict] = {}
        for gid, rule, kind, out in rnd["outputs"]:
            attempted += 1
            if isinstance(out, str):
                failed += 1
                continue
            entry = pool[gid]
            ref = entry["results"][f"{rule}/{kind}"]
            if out != ref:
                problems.append(f"{gid} {rule}/{kind}: got {out}, "
                                f"oracle {ref}")
                continue
            value, size, pt, witness = out
            nbrs = oracle.neighbor_sets(entry["n"], entry["edges"])
            if (len(witness) != size or oracle.cost(kind, size, pt) != value
                    or oracle.propagation_time(rule, entry["n"], nbrs,
                                               witness) != pt):
                problems.append(f"{gid} {rule}/{kind}: witness {witness} "
                                f"does not give time {pt} and value {value}")
            values.setdefault(gid, {})[f"{rule}/{kind}"] = value
        for gid, vals in values.items():
            if len(vals) == 9:
                problems += [f"{gid}: {p}" for p in _properties(pool[gid], vals)]
    return attempted, failed, problems


def _suite_problems(name: str, nmax: int, full: bool, records) -> list[str]:
    """Graph-level facts about one suite's records.

    Every graph must have the suite's property; a full suite must also
    hold the published number of distinct graphs of each order.
    """
    problems = []
    prop, per_graph = SUITES[name][3], SUITES[name][2]
    decoded = {g6: oracle.decode_graph6(g6) for _, g6, _, _ in records}
    wrong = [g6 for g6, (n, edges) in decoded.items() if not prop(n, edges)]
    if wrong:
        problems.append(f"{name}: {len(wrong)} graphs lack the suite's "
                        f"property, e.g. {wrong[0]}")
    if full:
        want = graphs_per_order(name, nmax)
        got = dict(Counter(n for n, _ in decoded.values()))
        if got != want or len(records) != per_graph * len(decoded):
            problems.append(f"{name}: distinct graphs per order {got}, "
                            f"published {want}")
    return problems


def check_sweep(specs, rounds: list[dict],
                seed: int) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for rnd in rounds:
        for name, nmax, budget in specs:
            records = rnd["records"][name]
            want = case_count(name, nmax) if budget is None else budget
            if len(records) != want:
                problems.append(f"{name}: {len(records)} cases, expected {want}")
            for case_id, _, passed, computed in records:
                attempted += 1
                if computed.startswith("error:"):
                    failed += 1
                elif not passed:
                    problems.append(f"{case_id} failed: {computed}")
        for name, got in rnd["full_counts"].items():
            nmax = next(m for s, m, _ in specs if s == name)
            if got != case_count(name, nmax):
                problems.append(f"{name} builds {got} cases up to order "
                                f"{nmax}, published counts give "
                                f"{case_count(name, nmax)}")
        if "enumerated" in rnd:
            n, total, connected = rnd["enumerated"]
            if [total, connected] != [G[n], C[n]]:
                problems.append(f"order {n} enumerates {total} graphs, "
                                f"{connected} connected; published "
                                f"{G[n]} and {C[n]}")
    first = rounds[0]["records"]
    rng = random.Random(seed)
    for name, nmax, budget in specs:
        problems += _suite_problems(name, nmax, budget is None, first[name])
        if name not in STATED:
            continue
        pattern, key = STATED[name]
        pick = rng.sample(first[name], min(ORACLE_SAMPLE, len(first[name])))
        for case_id, g6, _, computed in pick:
            n, edges = oracle.decode_graph6(g6)
            if key is None:
                value = oracle.domination_number(
                    n, oracle.neighbor_sets(n, edges))
            else:
                value = oracle.solve(n, edges)["results"][key][0]
            stated = re.search(pattern, computed)
            if stated is None or int(stated.group(1)) != value:
                problems.append(f"{case_id}: {computed!r}, oracle {value}")
    return attempted, failed, problems

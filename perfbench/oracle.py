"""Independent exhaustive solver used to check the benchmark's outputs.

Nothing here comes from throttlekit: vertex sets are Python sets,
graphs are edge lists, and graph6 is decoded from the format's
definition.  Propagation times are tabulated over every start set at
once: pt(S) = 1 + pt(S + step(S)), so each set costs one step and a
lookup, and all three throttling kinds are read off one table per rule.
The engine instead scans sizes in colex order with cap and floor
pruning, so the two share neither code nor algorithm.
"""

from __future__ import annotations

import math
from itertools import combinations

INF = math.inf
RULES = ("zf", "psd", "pd")
KINDS = ("sum", "prodx", "prodstar")

# Published counts of graphs (OEIS A000088) and connected graphs
# (A001349) on n unlabeled vertices, n = 0..8.
GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
CONNECTED_COUNTS = (1, 1, 1, 2, 6, 21, 112, 853, 11117)


def neighbor_sets(n: int, edges) -> list[set[int]]:
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def is_connected(n: int, nbrs: list[set[int]]) -> bool:
    if n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        for w in nbrs[frontier.pop()] - seen:
            seen.add(w)
            frontier.append(w)
    return len(seen) == n


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Order and edge list of a graph6 record (orders up to 62)."""
    data = [ord(c) - 63 for c in text.strip()]
    n = data[0]
    if not 0 <= n <= 62 or any(not 0 <= x < 64 for x in data):
        raise ValueError(f"not a short graph6 record: {text!r}")
    bits = [x >> s & 1 for x in data[1:] for s in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(data) - 1 != (len(pairs) + 5) // 6 or any(bits[len(pairs):]):
        raise ValueError(f"malformed graph6 record: {text!r}")
    return n, [p for p, b in zip(pairs, bits) if b]


def _zf_forced(nbrs, filled: set[int]) -> set[int]:
    forced = set()
    for v in filled:
        open_nbrs = nbrs[v] - filled
        if len(open_nbrs) == 1:
            forced |= open_nbrs
    return forced


def _psd_forced(nbrs, n: int, filled: set[int]) -> set[int]:
    # The standard rule inside each component of the unfilled part.
    comp = {}
    for s in range(n):
        if s in filled or s in comp:
            continue
        comp[s] = s
        stack = [s]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in filled and w not in comp:
                    comp[w] = s
                    stack.append(w)
    forced = set()
    for v in filled:
        by_comp: dict[int, list[int]] = {}
        for w in nbrs[v] - filled:
            by_comp.setdefault(comp[w], []).append(w)
        forced.update(ws[0] for ws in by_comp.values() if len(ws) == 1)
    return forced


def _closed_neighborhood(nbrs, s: set[int]) -> set[int]:
    out = set(s)
    for v in s:
        out |= nbrs[v]
    return out


def propagation_time(rule: str, n: int, nbrs, start) -> float:
    """Rounds until every vertex is filled from ``start``; INF on a stall."""
    filled = set(start)
    everything = set(range(n))
    t = 0
    while filled != everything:
        if rule == "pd" and t == 0:
            new = _closed_neighborhood(nbrs, filled) - filled
        elif rule == "psd":
            new = _psd_forced(nbrs, n, filled)
        else:
            new = _zf_forced(nbrs, filled)
        if not new:
            return INF
        filled |= new
        t += 1
    return t


def _members(n: int, index: int) -> set[int]:
    return {v for v in range(n) if index >> v & 1}


def _index(s) -> int:
    return sum(1 << v for v in s)


def time_table(rule: str, n: int, nbrs) -> list[float]:
    """Propagation time of every start set, indexed by its bit pattern."""
    full = (1 << n) - 1
    if rule == "pd":
        zf = time_table("zf", n, nbrs)
        table = [INF] * (full + 1)
        table[full] = 0
        for index in range(full):
            reach = _index(_closed_neighborhood(nbrs, _members(n, index)))
            if reach != index:
                table[index] = 1 + zf[reach]
        return table
    table = [INF] * (full + 1)
    table[full] = 0
    # A set's successor is a strict superset, so it has a larger index
    # and is already tabulated when the set is reached.
    for index in range(full - 1, -1, -1):
        filled = _members(n, index)
        new = (_psd_forced(nbrs, n, filled) if rule == "psd"
               else _zf_forced(nbrs, filled))
        if new:
            table[index] = 1 + table[index | _index(new)]
    return table


def cost(kind: str, size: int, pt: float) -> float:
    """Throttling cost of a start set of this size and time."""
    if pt == INF:
        return INF
    if kind == "sum":
        return size + pt
    if kind == "prodx":
        return size * (1 + pt)
    return size * pt


def solve(n: int, edges) -> dict:
    """Reference optima for every rule and kind, plus forcing numbers.

    Returns {"forcing": {rule: least completing size},
    "results": {"rule/kind": [value, size, pt, witness]}} where the
    witness is the least size, then colex-least set, of least value.
    Edgeless graphs have no prodstar entries.
    """
    nbrs = neighbor_sets(n, edges)
    out: dict = {"forcing": {}, "results": {}}
    for rule in RULES:
        table = time_table(rule, n, nbrs)
        best = [INF] * (n + 1)
        first = [0] * (n + 1)
        # Ascending indices visit each size's sets in colex order, so
        # the first strict improvement at a size is its colex-least set.
        for index, pt in enumerate(table):
            k = index.bit_count()
            if pt < best[k]:
                best[k], first[k] = pt, index
        out["forcing"][rule] = next(k for k in range(1, n + 1)
                                    if best[k] != INF)
        for kind in KINDS:
            if kind == "prodstar" and not edges:
                continue  # undefined without an edge
            sizes = range(1, n) if kind == "prodstar" else range(1, n + 1)
            value, size = min((cost(kind, k, best[k]), k) for k in sizes)
            out["results"][f"{rule}/{kind}"] = [
                int(value), size, int(best[size]),
                sorted(_members(n, first[size]))]
    return out


def domination_number(n: int, nbrs) -> int:
    everything = set(range(n))
    for k in range(n + 1):
        for s in combinations(range(n), k):
            if _closed_neighborhood(nbrs, s) == everything:
                return k
    raise AssertionError("the whole vertex set dominates")

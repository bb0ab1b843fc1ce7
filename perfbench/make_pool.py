"""Regenerate pool.json, the compute-mid inputs and their reference optima.

    python3 perfbench/make_pool.py

Run from the repository root.  The pool is a fixed set of base graphs
of order 15-18, each under LABELINGS vertex labelings drawn from
POOL_SEED.  A benchmark seed picks one labeling per base graph and the
order of the list, so every seed runs the same structures under other
labels and other witnesses.  The family graphs are built with
throttlekit's expression parser; every value, size, time and witness
comes from oracle.solve, which shares no code with throttlekit.
Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
from throttlekit import parse_graph_expression  # noqa: E402

POOL_SEED = 2501
LABELINGS = 4
# The paper's symmetric families, and random G(n, p) graphs of the same
# orders with average degree 3.5.
FAMILIES = ("corona:C5,2", "family_6n7:C4/se:v1-v2", "book:7", "cycle:16",
            "path:17", "spider:5,4,4,4")
RANDOM_ORDERS = (15, 15, 16, 16, 17, 18)
AVERAGE_DEGREE = 3.5
POOL_PATH = os.path.join(HERE, "pool.json")


def random_connected(n: int, rng: random.Random) -> list[tuple[int, int]]:
    p = AVERAGE_DEGREE / (n - 1)
    while True:
        edges = [(i, j) for j in range(n) for i in range(j)
                 if rng.random() < p]
        if oracle.is_connected(n, oracle.neighbor_sets(n, edges)):
            return edges


def pool_entry(gid: str, expr: str | None, n: int, edges, perm) -> dict:
    """A pool graph under a labeling, with its oracle optima."""
    labeled = sorted(sorted((perm[u], perm[v])) for u, v in edges)
    entry = {"id": gid, "expr": expr, "n": n, "perm": perm, "edges": labeled}
    entry.update(oracle.solve(n, labeled))
    return entry


def main() -> None:
    rng = random.Random(POOL_SEED)
    bases = []
    for expr in FAMILIES:
        g = parse_graph_expression(expr).graph
        bases.append((expr, expr, g.n, list(g.edges())))
    for i, n in enumerate(RANDOM_ORDERS):
        bases.append((f"gnp{n}-{i}", None, n, random_connected(n, rng)))
    graphs = []
    for name, expr, n, edges in bases:
        for label in range(LABELINGS):
            perm = list(range(n))
            if label:
                rng.shuffle(perm)
            entry = pool_entry(f"{name}@{label}", expr, n, edges, perm)
            graphs.append(entry)
            print(entry["id"], entry["results"]["zf/prodstar"][:2],
                  flush=True)
    with open(POOL_PATH, "w") as fh:
        json.dump({"pool_seed": POOL_SEED, "labelings": LABELINGS,
                   "graphs": graphs}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()

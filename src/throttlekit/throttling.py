"""Throttling numbers: trading start-set size against propagation time.

Three cost functions over a start set B with propagation time pt:

* sum:       |B| + pt
* prodx:     |B| * (1 + pt)   (product with initial cost)
* prodstar:  |B| * pt         (product without initial cost)

At a fixed size k each cost is a line in pt, ``slope * pt + offset``,
with (slope, offset) = (1, k), (k, k) and (k, 0) respectively.  The
optimizers hand that line to the walk over start sizes in ``forcing``,
``_cheapest``, whose sized scan caps every propagation by the incumbent
cost and stops at the least cost possible at that size.

The sum and prodx optima range over every start size up to the order;
the prodstar optimum excludes the full vertex set (its cost would be a
degenerate 0) and is undefined on edgeless graphs.  Witnesses are
deterministic: least value, then least size, then colex-least set.

``throttling_number`` walks the sizes once, from an incumbent one above
a cost every graph reaches under all three rules: n for sum and prodx
(the full set) and n - 1 for prodstar (all vertices but one with a
neighbor, which is colored in one step).  A size that cannot beat the
incumbent is skipped, never the end of the walk: under sum the least
cost falls to n at the full set.  The per-size table is built apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .forcing import (
    INFINITY,
    Rule,
    Time,
    _cheapest,
    _pt,
    _size_masks,
    json_time,
    k_propagation_time,
)
from .graph import Graph, VertexSet, bits

TableEntry = tuple[Time, Optional[VertexSet]]


class ThrottleKind(enum.Enum):
    SUM = "sum"
    PRODUCT_INITIAL_COST = "prodx"
    PRODUCT_NO_INITIAL_COST = "prodstar"


def throttling_value(kind: ThrottleKind, size: int, pt: Time) -> Time:
    """Combine a start-set size and a propagation time into a cost."""
    if pt == INFINITY:
        return INFINITY
    slope, offset = _cost_line(kind, size)
    return slope * pt + offset


def _cost_line(kind: ThrottleKind, size: int) -> tuple[int, int]:
    # (slope, offset) of the cost as a function of pt at this size.
    if kind is ThrottleKind.SUM:
        return 1, size
    if kind is ThrottleKind.PRODUCT_INITIAL_COST:
        return size, size
    return size, 0


@dataclass(frozen=True, eq=False)
class ThrottlingResult:
    """A throttling optimum with its witness start set."""

    rule: Rule
    kind: ThrottleKind
    graph: Graph
    value: int
    size: int
    propagation_time: int
    witness: VertexSet
    table: Optional[dict[int, TableEntry]] = None

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule.value,
            "kind": self.kind.value,
            "order": self.graph.n,
            "value": self.value,
            "size": self.size,
            "propagation_time": self.propagation_time,
            "witness": list(self.witness.members),
        }
        if self.table is not None:
            out["table"] = {
                str(k): {
                    "value": json_time(v),
                    "witness": None if w is None else list(w.members),
                }
                for k, (v, w) in self.table.items()
            }
        return out


def throttling_of_set(rule: Rule, kind: ThrottleKind, g: Graph,
                      initial: VertexSet) -> Time:
    """Cost of one specific start set."""
    if initial.order != g.n:
        raise ValueError("vertex set order does not match the graph")
    if kind is ThrottleKind.PRODUCT_NO_INITIAL_COST and initial.mask == g.full_mask:
        raise ValueError("no-initial-cost throttling excludes the full vertex set")
    t = _pt(rule, g.adjacency, g.n, initial.mask)
    assert t is not None
    return throttling_value(kind, len(initial), t)


def throttling_at_size(rule: Rule, kind: ThrottleKind, g: Graph,
                       k: int) -> TableEntry:
    """Best cost over start sets of exactly size k, with its witness.

    Returns (INFINITY, None) when no size-k set completes.
    """
    n = g.n
    low, top = (1, n - 1) if kind is ThrottleKind.PRODUCT_NO_INITIAL_COST \
        else (0, n)
    if not low <= k <= top:
        raise ValueError(f"size must be between {low} and {top}, got {k}")
    hit = _cheapest(rule, g.adjacency, n, range(k, k + 1),
                    partial(_cost_line, kind))
    if hit is None:
        return INFINITY, None
    return hit[0], VertexSet.from_mask(n, hit[2])


def throttling_number(rule: Rule, kind: ThrottleKind, g: Graph,
                      with_table: bool = False) -> ThrottlingResult:
    """Minimum cost over all start sizes, with a deterministic witness.

    With ``with_table`` the result also carries the per-size optima.
    """
    n = g.n
    if kind is ThrottleKind.PRODUCT_NO_INITIAL_COST and g.edge_count == 0:
        raise ValueError("no-initial-cost throttling needs at least one edge")
    # The walk scans for costs up to `top`, which every graph reaches (see
    # the module docstring).  The empty set colors the empty graph at once.
    top = n - 1 if kind is ThrottleKind.PRODUCT_NO_INITIAL_COST else n
    sizes = range(1, top + 1)
    best = (0, 0, 0, 0) if n == 0 else _cheapest(
        rule, g.adjacency, n, sizes, partial(_cost_line, kind), top + 1)
    if best is None:
        raise AssertionError("a finite throttling cost always exists here")
    table = {k: throttling_at_size(rule, kind, g, k) for k in sizes} \
        if with_table else None
    value, pt, mask, size = best
    return ThrottlingResult(
        rule=rule, kind=kind, graph=g, value=value, size=size,
        propagation_time=pt, witness=VertexSet.from_mask(n, mask),
        table=table,
    )


def least_size_with_propagation_time(g: Graph, p: int) -> tuple[int, VertexSet]:
    """Least start size whose fastest standard propagation time is exactly p."""
    if p < 0:
        raise ValueError(f"propagation time must be nonnegative, got {p}")
    for k in range(g.n + 1):
        t, wit = k_propagation_time(Rule.STANDARD, g, k)
        if t == p:
            assert wit is not None
            return k, wit
    raise ValueError(f"no start size has standard propagation time {p}")


def one_step_forcing_number(g: Graph) -> tuple[int, VertexSet]:
    """Least size of a set whose single standard step colors everything.

    This equals the no-initial-cost throttling number under the standard
    rule.  Undefined (ValueError) on edgeless graphs, where only the full
    set completes.
    """
    if g.edge_count == 0:
        raise ValueError("one-step forcing needs at least one edge")
    # Incumbent cost 2 on the line pt admits only sets done in one step.
    hit = _cheapest(Rule.STANDARD, g.adjacency, g.n, range(1, g.n),
                    lambda _: (1, 0), 2)
    if hit is None:
        raise AssertionError("deleting one endpoint of an edge always works")
    return hit[3], VertexSet.from_mask(g.n, hit[2])


def is_matched_sum(g: Graph) -> tuple[bool, Optional[VertexSet]]:
    """Whether the vertices split into equal halves whose crossing edges
    form a perfect matching; returns one half as witness when they do."""
    n = g.n
    if n % 2:
        raise ValueError(f"matched sums have even order, got {n}")
    if n == 0:
        return False, None
    adj = g.adjacency
    full = g.full_mask
    for x in _size_masks(n, n // 2):
        if not x & 1:
            continue
        y = full & ~x
        if all((adj[v] & y).bit_count() == 1 for v in bits(x)) and \
                all((adj[v] & x).bit_count() == 1 for v in bits(y)):
            return True, VertexSet.from_mask(n, x)
    return False, None

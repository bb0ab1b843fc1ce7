"""Minimum dominating sets and their refinements.

A dominating set is a start set whose members' closed neighborhoods
cover every vertex, so minimum dominating sets are the least size at
which ``forcing._covering_masks`` yields a mask on the closed
neighborhoods.  That generator lists the covers of one size in colex
order and drops a partial set only when no completion of it covers,
either because the balls of its members and of every vertex below its
lowest member miss a vertex, or because too many vertices are uncovered
for its picks left; every dropped set is a non-cover, so the covers it
yields, and their order, are those of the full colex walk.

Beyond the plain domination number this module ranks minimum dominating
sets by the number of edges they induce and then by total degree, with
ties to the least mask, and it computes external private neighbors, the
machinery behind the constructive throttling bounds.  Ranking reads one
pass of (inner-edge count, degree sum, mask) triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .forcing import _covering_masks, _domination_step
from .graph import Graph, VertexSet, bits


def is_dominating_set(g: Graph, s: VertexSet) -> bool:
    """True when every vertex is in s or adjacent to a vertex of s."""
    if s.order != g.n:
        raise ValueError("vertex set order does not match the graph")
    full = g.full_mask
    return s.mask | _domination_step(g.adjacency, s.mask, full) == full


def domination_number(g: Graph) -> tuple[int, VertexSet]:
    """Least size of a dominating set, with the first colex witness."""
    witness = next(minimum_dominating_sets(g))
    return len(witness), witness


def _minimum_dominating_masks(g: Graph) -> Iterator[int]:
    # The covers by closed neighborhoods of the least size that has any.
    balls = tuple([row | 1 << v for v, row in enumerate(g.adjacency)])
    for k in range(g.n + 1):
        found = False
        for mask in _covering_masks(balls, g.n, k):
            found = True
            yield mask
        if found:
            return
    raise AssertionError("the full vertex set always dominates")


def minimum_dominating_sets(g: Graph) -> Iterator[VertexSet]:
    """All minimum dominating sets, in colexicographic order."""
    for mask in _minimum_dominating_masks(g):
        yield VertexSet.from_mask(g.n, mask)


def _rank(adj: tuple[int, ...], mask: int) -> tuple[int, int]:
    # (induced edge count, degree sum) of the set.
    inner = degrees = 0
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        row = adj[low.bit_length() - 1]
        inner += (row & mask).bit_count()
        degrees += row.bit_count()
    return inner // 2, degrees


def _ranked(g: Graph) -> list[tuple[int, int, int]]:
    """(induced edge count, degree sum, mask) of every minimum dominating
    set, in colex order."""
    adj = g.adjacency
    return [(*_rank(adj, mask), mask) for mask in _minimum_dominating_masks(g)]


def edge_maximum_dominating_sets(g: Graph) -> list[VertexSet]:
    """Minimum dominating sets inducing the most edges, colex order."""
    ranked = _ranked(g)
    most = max(ranked)[0]
    return [VertexSet.from_mask(g.n, mask)
            for inner, _, mask in ranked if inner == most]


def optimal_dominating_sets(g: Graph) -> list[VertexSet]:
    """Edge-maximum minimum dominating sets of largest total degree."""
    ranked = _ranked(g)
    best = max(ranked)[:2]
    return [VertexSet.from_mask(g.n, mask)
            for inner, degrees, mask in ranked if (inner, degrees) == best]


def _private(adj: tuple[int, ...], d: int, v: int) -> int:
    # The vertices outside d whose only neighbor in d is v.
    private = 0
    for w in bits(adj[v] & ~d):
        if adj[w] & d == 1 << v:
            private |= 1 << w
    return private


def external_private_neighbors(g: Graph, d: VertexSet, v: int) -> VertexSet:
    """Vertices outside d whose only neighbor inside d is v."""
    if d.order != g.n:
        raise ValueError("vertex set order does not match the graph")
    if v not in d:
        raise ValueError(f"vertex {v} is not in the dominating set")
    return VertexSet.from_mask(g.n, _private(g.adjacency, d.mask, v))


@dataclass(frozen=True, eq=False)
class DominationCertificate:
    """A distinguished minimum dominating set with its private neighbors.

    The set maximizes induced edge count among minimum dominating sets,
    then total degree, with ties broken by least bitmask, so the choice
    is deterministic for a given labeled graph.
    """

    graph: Graph
    vertices: VertexSet
    inner_edge_count: int
    degree_sum: int
    private_neighbors: dict[int, tuple[int, ...]]

    def validate(self) -> None:
        g = self.graph
        if not is_dominating_set(g, self.vertices):
            raise AssertionError("certificate set does not dominate")
        adj = g.adjacency
        mask = self.vertices.mask
        inner, degrees = _rank(adj, mask)
        if inner != self.inner_edge_count:
            raise AssertionError("recorded induced edge count is wrong")
        if degrees != self.degree_sum:
            raise AssertionError("recorded degree sum is wrong")
        # Every minimum dominating set ranks lower, or ties and comes
        # later in colex order.
        key = (inner, degrees, -mask)
        for other in _minimum_dominating_masks(g):
            if other.bit_count() != len(self.vertices):
                raise AssertionError("certificate set is not minimum")
            if (*_rank(adj, other), -other) > key:
                raise AssertionError("a minimum dominating set ranks higher")
        if set(self.private_neighbors) != set(self.vertices.members):
            raise AssertionError("private neighbors are not keyed by the set")
        for v in self.vertices:
            expect = external_private_neighbors(g, self.vertices, v)
            if tuple(expect.members) != self.private_neighbors[v]:
                raise AssertionError("recorded private neighbors are wrong")

    def to_dict(self) -> dict:
        return {
            "order": self.graph.n,
            "vertices": list(self.vertices.members),
            "inner_edge_count": self.inner_edge_count,
            "degree_sum": self.degree_sum,
            "private_neighbors": {
                str(v): list(ws) for v, ws in self.private_neighbors.items()
            },
        }


def optimal_dominating_set(g: Graph) -> DominationCertificate:
    """The deterministic optimal dominating set with its epn table."""
    # max keeps the first of equal ranks, the least mask.
    inner, degrees, choice = max(_ranked(g), key=itemgetter(0, 1))
    adj = g.adjacency
    return DominationCertificate(
        graph=g,
        vertices=VertexSet.from_mask(g.n, choice),
        inner_edge_count=inner,
        degree_sum=degrees,
        private_neighbors={v: tuple(bits(_private(adj, choice, v)))
                           for v in bits(choice)},
    )

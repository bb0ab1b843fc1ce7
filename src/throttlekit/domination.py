"""Minimum dominating sets and their refinements.

A dominating set is a power domination start set that fills every
vertex in its first, closed-neighborhood round, so domination is tested
with the propagation engine's domination step.  Beyond the plain
domination number this module ranks minimum dominating sets by the
number of edges they induce and then by total degree, and it computes
external private neighbors, the machinery behind the constructive
throttling bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .forcing import _domination_step, _size_masks
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


def minimum_dominating_sets(g: Graph) -> Iterator[VertexSet]:
    """All minimum dominating sets, in colexicographic order."""
    adj = g.adjacency
    full = g.full_mask
    for k in range(g.n + 1):
        found = False
        for mask in _size_masks(g.n, k):
            if mask | _domination_step(adj, mask, full) == full:
                found = True
                yield VertexSet.from_mask(g.n, mask)
        if found:
            return
    raise AssertionError("the full vertex set always dominates")


def _inner_edge_count(adj: tuple[int, ...], mask: int) -> int:
    return sum((adj[v] & mask).bit_count() for v in bits(mask)) // 2


def _degree_sum(adj: tuple[int, ...], mask: int) -> int:
    return sum(adj[v].bit_count() for v in bits(mask))


def _maxima(adj: tuple[int, ...], sets: Iterable[VertexSet],
            measure: Callable[[tuple[int, ...], int], int]) -> list[VertexSet]:
    # Every set of the largest measure, in the order given.
    best = -1
    out: list[VertexSet] = []
    for d in sets:
        value = measure(adj, d.mask)
        if value > best:
            best, out = value, [d]
        elif value == best:
            out.append(d)
    return out


def edge_maximum_dominating_sets(g: Graph) -> list[VertexSet]:
    """Minimum dominating sets inducing the most edges, colex order."""
    return _maxima(g.adjacency, minimum_dominating_sets(g), _inner_edge_count)


def optimal_dominating_sets(g: Graph) -> list[VertexSet]:
    """Edge-maximum minimum dominating sets of largest total degree."""
    return _maxima(g.adjacency, edge_maximum_dominating_sets(g), _degree_sum)


def external_private_neighbors(g: Graph, d: VertexSet, v: int) -> VertexSet:
    """Vertices outside d whose only neighbor inside d is v."""
    if d.order != g.n:
        raise ValueError("vertex set order does not match the graph")
    if v not in d:
        raise ValueError(f"vertex {v} is not in the dominating set")
    adj = g.adjacency
    outside = g.full_mask & ~d.mask
    private = 0
    for w in bits(adj[v] & outside):
        if adj[w] & d.mask == 1 << v:
            private |= 1 << w
    return VertexSet.from_mask(g.n, private)


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
        gamma, _ = domination_number(g)
        if len(self.vertices) != gamma:
            raise AssertionError("certificate set is not minimum")
        adj = g.adjacency
        if _inner_edge_count(adj, self.vertices.mask) != self.inner_edge_count:
            raise AssertionError("recorded induced edge count is wrong")
        if _degree_sum(adj, self.vertices.mask) != self.degree_sum:
            raise AssertionError("recorded degree sum is wrong")
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
    choice = optimal_dominating_sets(g)[0]
    adj = g.adjacency
    epn = {
        v: tuple(external_private_neighbors(g, choice, v).members)
        for v in choice
    }
    return DominationCertificate(
        graph=g,
        vertices=choice,
        inner_edge_count=_inner_edge_count(adj, choice.mask),
        degree_sum=_degree_sum(adj, choice.mask),
        private_neighbors=epn,
    )

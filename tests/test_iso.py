"""Isomorphism checks cross-validated against networkx."""

import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from throttlekit.families import complete, cycle, empty_graph, path, star
from throttlekit.graph import Graph
from throttlekit.iso import are_isomorphic, find_isomorphism, invariant_key

from .strategies import graphs


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def relabeled(g: Graph, rnd) -> Graph:
    labels = list(range(g.n))
    rnd.shuffle(labels)
    return Graph(g.n, [(labels[u], labels[v]) for u, v in g.edges()])


def key(g: Graph) -> tuple:
    return invariant_key(g.n, g.adjacency)


def assert_maps_onto(g: Graph, h: Graph) -> None:
    """find_isomorphism(g, h) is a bijection carrying every edge of g
    onto an edge of h."""
    perm = find_isomorphism(g, h)
    assert perm is not None
    assert sorted(perm) == list(range(g.n))
    assert all(h.has_edge(perm[u], perm[v]) for u, v in g.edges())


def test_trivial_cases():
    assert are_isomorphic(Graph(0), Graph(0))
    assert are_isomorphic(Graph(1), Graph(1))
    assert not are_isomorphic(Graph(1), Graph(2))
    assert not are_isomorphic(Graph(2, [(0, 1)]), Graph(2))


def test_same_degree_sequence_not_isomorphic():
    # Hexagon versus two triangles: both 2-regular on six vertices.
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not are_isomorphic(cycle(6), two_triangles)


def test_find_isomorphism_returns_a_real_map():
    assert_maps_onto(path(5), Graph(5, [(4, 2), (2, 0), (0, 1), (1, 3)]))


def test_star_center_must_map_to_center():
    perm = find_isomorphism(star(5), Graph(5, [(4, 0), (4, 1), (4, 2), (4, 3)]))
    assert perm is not None
    assert perm[0] == 4


@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_relabeling_is_isomorphic(g, rnd):
    h = relabeled(g, rnd)
    assert_maps_onto(g, h)
    assert key(g) == key(h)


@given(graphs(min_n=4, max_n=7), st.randoms(use_true_random=False))
def test_canonical_key_on_edge_switches(g, rnd):
    # A relabeled copy with one edge moved keeps the order and the edge
    # count, and is sometimes isomorphic and sometimes not.
    h = relabeled(g, rnd)
    non_edges = [(u, v) for u in range(h.n) for v in range(u + 1, h.n)
                 if not h.has_edge(u, v)]
    if h.edge_count and non_edges:
        moved = rnd.choice(h.edges())
        edges = [e for e in h.edges() if e != moved] + [rnd.choice(non_edges)]
        h = Graph(h.n, edges)
    assert (key(g) == key(h)) == nx.is_isomorphic(to_nx(g), to_nx(h))


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + inner + [(i, i + 5) for i in range(5)])


SYMMETRIC = {
    "E9": empty_graph(9),
    "K9": complete(9),
    "C9": cycle(9),
    "K4,5": Graph(9, [(i, j) for i in range(4) for j in range(4, 9)]),
    "3K3": Graph(9, [(3 * t + i, 3 * t + j) for t in range(3)
                     for i, j in ((0, 1), (0, 2), (1, 2))]),
    "4K2+K1": Graph(9, [(2 * t, 2 * t + 1) for t in range(4)]),
    "Petersen": _petersen(),
    # 2-regular, so refinement leaves one cell, but its vertices lie in
    # two orbits: only the least leaf certificate is canonical here.
    "C4+C5": Graph(9, [(i, (i + 1) % 4) for i in range(4)]
                   + [(4 + i, 4 + (i + 1) % 5) for i in range(5)]),
}


@pytest.mark.parametrize("name", SYMMETRIC)
def test_canonical_key_survives_relabeling_of_symmetric_graphs(name):
    g = SYMMETRIC[name]
    rnd = random.Random(name)
    for _ in range(5):
        h = relabeled(g, rnd)
        assert key(h) == key(g)
        assert_maps_onto(g, h)


def test_symmetric_graphs_have_distinct_keys():
    assert len({key(g) for g in SYMMETRIC.values()}) == len(SYMMETRIC)


@given(graphs(max_n=7), graphs(max_n=7))
def test_agreement_with_networkx(g, h):
    expected = nx.is_isomorphic(to_nx(g), to_nx(h))
    assert are_isomorphic(g, h) == expected
    assert (key(g) == key(h)) == expected


@given(graphs(max_n=7))
def test_self_isomorphism(g):
    assert are_isomorphic(g, g)

"""Isomorphism checks cross-validated against networkx."""

import gc
import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from throttlekit.families import (
    complete,
    cycle,
    empty_graph,
    enumerate_graphs,
    parse_graph_expression,
    path,
    star,
)
from throttlekit.graph import Graph, unions
from throttlekit.iso import (
    are_isomorphic,
    automorphisms,
    find_isomorphism,
    invariant_key,
    orbit_firsts,
)

from .oracles import orbit_closure_firsts
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


def group_order(n: int, gens: list[tuple[int, ...]]) -> int:
    """The order of the permutation group the generators generate."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        p = frontier.pop()
        for s in gens:
            q = tuple(s[i] for i in p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)


SMALL = [g for n in range(1, 8) for g in enumerate_graphs(n)]


def test_automorphisms_preserve_adjacency():
    gs = SMALL + [parse_graph_expression(e).graph for e in
                  ("book:5", "cycle:8", "spider:2,2,1,1", "complete:6")]
    for g in gs:
        # The same search gives the canonical key.
        key, gens = automorphisms(g.n, g.adjacency)
        assert key == invariant_key(g.n, g.adjacency)
        for sigma in gens:
            assert sorted(sigma) == list(range(g.n))
            assert all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges())


def test_automorphisms_generate_the_whole_group():
    assert len(SMALL) == 1252
    for g in SMALL:
        matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), to_nx(g))
        expected = sum(1 for _ in matcher.isomorphisms_iter())
        assert group_order(g.n, automorphisms(g.n, g.adjacency)[1]) == expected


def _vertex_image(sigma, x):
    return sigma[x]


def _edge_image(sigma, e):
    return tuple(sorted((sigma[e[0]], sigma[e[1]])))


def _mask_image(sigma, m):
    return sum(1 << sigma[v] for v in range(len(sigma)) if m >> v & 1)


def test_orbit_firsts_match_the_orbit_closure():
    # The one-generator rule against the closure: the vertices and
    # unordered edges of every graph to order 8, and the extension masks
    # of every parent to order 7.  As in the package, edges and masks go
    # to orbit_firsts as vertex masks under each generator's unions
    # table; the closure maps pairs and masks vertex by vertex.
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            gens = automorphisms(n, g.adjacency)[1]
            tables = [unions([1 << w for w in s]) for s in gens]
            vertices = range(n)
            assert (orbit_firsts(vertices, gens)
                    == orbit_closure_firsts(vertices, gens, _vertex_image))
            closure = orbit_closure_firsts(g.edges(), gens, _edge_image)
            assert orbit_firsts([1 << u | 1 << v for u, v in g.edges()],
                                tables) == {
                1 << u | 1 << v: 1 << a | 1 << b
                for (u, v), (a, b) in closure.items()}
            if n <= 7:
                masks = range(1 << n)
                assert (orbit_firsts(masks, tables)
                        == orbit_closure_firsts(masks, gens, _mask_image))


def test_orbit_firsts_is_one_generator_step_not_the_closure():
    # Under the cycle 0 -> 1 -> 2 -> 0, item 1's only image is 2, not
    # yet seen, so 1 stays its own representative, though the closure
    # gives 0.  Every representative is still its own and an earlier
    # member of the same orbit.
    gens = [(1, 2, 0)]
    first = orbit_firsts(range(3), gens)
    closure = orbit_closure_firsts(range(3), gens, _vertex_image)
    assert first == {0: 0, 1: 1, 2: 0}
    assert closure == {0: 0, 1: 0, 2: 0}
    assert all(first[first[x]] == first[x] <= x for x in first)
    assert all(closure[first[x]] == closure[x] for x in first)


def test_search_leaves_no_garbage():
    # Every object a key, a map or a generator list builds is freed by
    # reference counting when the call returns, so the cyclic collector
    # finds nothing.
    gs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    gs += [parse_graph_expression(e).graph
           for e in ("book:3", "spider:2,2,1,1", "cycle:8")]
    gc.collect()
    gc.disable()
    try:
        for g in gs:
            invariant_key(g.n, g.adjacency)
            assert find_isomorphism(g, g) is not None
            automorphisms(g.n, g.adjacency)
        assert gc.collect() == 0
    finally:
        gc.enable()

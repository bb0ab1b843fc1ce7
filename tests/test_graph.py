import pytest
from hypothesis import given
from hypothesis import strategies as st

from throttlekit.families import enumerate_graphs
from throttlekit.graph import (
    Graph,
    InvalidVertexError,
    MissingEdgeError,
    VertexSet,
    bits,
    mask_components,
)

from . import oracles
from .strategies import graphs, graphs_with_edge, graphs_with_vertex


def test_bits_enumerates_set_positions():
    assert list(bits(0)) == []
    assert list(bits(0b101101)) == [0, 2, 3, 5]


def test_vertex_set_basics():
    s = VertexSet(5, [0, 3])
    assert s.members == (0, 3)
    assert len(s) == 2
    assert 3 in s and 1 not in s
    assert 7 not in s
    assert (~s).members == (1, 2, 4)
    assert (s | VertexSet(5, [1])).members == (0, 1, 3)
    assert (s - VertexSet(5, [0])).members == (3,)
    assert VertexSet.from_mask(5, 0b01001) == s


def test_vertex_set_rejects_out_of_range():
    with pytest.raises(InvalidVertexError):
        VertexSet(3, [3])
    with pytest.raises(InvalidVertexError):
        VertexSet.from_mask(3, 1 << 3)


def test_vertex_set_order_mismatch():
    with pytest.raises(ValueError):
        VertexSet(3, [0]).union(VertexSet(4, [0]))


def test_vertex_set_operators():
    a = VertexSet(4, [0, 1])
    b = VertexSet(4, [1, 2])
    assert (a | b).members == (0, 1, 2)
    assert (a & b).members == (1,)
    assert (a - b).members == (0,)
    assert a <= (a | b)
    assert not a.isdisjoint(b)
    assert a.isdisjoint(VertexSet(4, [3]))


def test_graph_construction_and_edges():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.n == 4
    assert g.edges() == ((0, 1), (1, 2), (2, 3))
    assert g.edge_count == 3
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 3)
    assert g.degree(1) == 2
    assert g.neighborhood(2).members == (1, 3)
    assert g.neighborhood(2, closed=True).members == (1, 2, 3)


def test_graph_rejects_bad_edges():
    with pytest.raises(InvalidVertexError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_universal_vertex():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert g.is_universal(0)
    assert not g.is_universal(1)
    assert g.has_universal_vertex()
    assert not Graph(3, [(0, 1)]).has_universal_vertex()
    # A single vertex is vacuously universal.
    assert Graph(1).has_universal_vertex()


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (3, 4)])
    comps = g.components()
    assert [c.members for c in comps] == [(0, 1), (2,), (3, 4)]
    assert not g.is_connected()
    assert Graph(1).is_connected()
    assert g.isolated_vertices().members == (2,)


def test_mask_components_restricts_to_submask():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    # Removing vertex 1 from consideration splits the path.
    comps = mask_components(g.adjacency, 0b1101)
    assert sorted(comps) == [0b0001, 0b1100]


def test_induced_subgraph_relabels_compactly():
    g = Graph(5, [(0, 1), (1, 3), (3, 4), (0, 4)])
    h, vmap = g.induced_subgraph([1, 3, 4])
    assert h.n == 3
    assert h.edges() == ((0, 1), (1, 2))
    assert vmap.image(3) == 1
    assert vmap.image(0) is None
    assert vmap.preimage_set(VertexSet(3, [2])).members == (4,)


def test_delete_vertex():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h, vmap = g.delete_vertex(1)
    assert h.n == 3
    assert h.edges() == ((1, 2),)
    assert vmap.image(1) is None
    assert vmap.image(3) == 2


def test_delete_edge_requires_edge():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.delete_edge(1, 0).edges() == ((1, 2),)
    with pytest.raises(MissingEdgeError):
        g.delete_edge(0, 2)


def test_contract_edge_merges_and_shifts():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    h, vmap = g.contract_edge(1, 2)
    assert h.n == 3
    # Cycle on four vertices contracts to a triangle.
    assert h.edges() == ((0, 1), (0, 2), (1, 2))
    assert vmap.merged_pair == (1, 2)
    assert vmap.image(1) == vmap.image(2) == 1
    assert vmap.image(3) == 2
    assert vmap.preimage_set(VertexSet(3, [1])).members == (1, 2)


def test_contract_edge_suppresses_parallels():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    h, _ = g.contract_edge(0, 1)
    assert h.n == 2
    assert h.edges() == ((0, 1),)


def test_subdivide_edge_inserts_new_vertex():
    g = Graph(3, [(0, 1), (1, 2)])
    h, vmap = g.subdivide_edge(0, 1)
    assert h.n == 4
    assert vmap.new_vertex == 3
    assert h.edges() == ((0, 3), (1, 2), (1, 3))
    assert vmap.image(2) == 2


def test_vertex_map_set_transport():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h, vmap = g.contract_edge(2, 3)
    moved = vmap.map_set(g.vertex_set([0, 3]))
    assert moved.members == (0, 2)
    back = vmap.preimage_set(h.vertex_set([2]))
    assert back.members == (2, 3)


def _derived(g, h, vmap):
    """A derived graph and its map in the edge-list reference's terms."""
    assert (vmap.source_order, vmap.target_order) == (g.n, h.n)
    return (h.adjacency, [vmap.image(x) for x in range(g.n)],
            vmap.merged_pair, vmap.new_vertex)


def test_surgery_matches_edge_list_reference_to_order_6():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            for x in range(n):
                assert _derived(g, *g.delete_vertex(x)) == \
                    oracles.naive_delete_vertex(g, x)
            for a, b in g.edges():
                for u, v in ((a, b), (b, a)):
                    assert g.delete_edge(u, v).adjacency == \
                        oracles.naive_delete_edge(g, u, v)
                    assert _derived(g, *g.contract_edge(u, v)) == \
                        oracles.naive_contract_edge(g, u, v)
                    assert _derived(g, *g.subdivide_edge(u, v)) == \
                        oracles.naive_subdivide_edge(g, u, v)
            for mask in range(1 << n):
                members = list(bits(mask))
                want = oracles.naive_induced_subgraph(g, members)
                as_set = VertexSet.from_mask(n, mask)
                assert _derived(g, *g.induced_subgraph(as_set)) == want
                # Unsorted, with a repeat: the list form sorts and dedupes.
                as_list = members[::-1] + members[:1]
                assert _derived(g, *g.induced_subgraph(as_list)) == want


@given(graphs(max_n=8))
def test_edges_round_trip_through_constructor(g):
    assert Graph(g.n, g.edges()) == g


@given(graphs(max_n=8))
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


@given(graphs(max_n=8))
def test_components_partition_vertices(g):
    seen = []
    for comp in g.components():
        seen.extend(comp.members)
    assert sorted(seen) == list(range(g.n))


@given(graphs_with_edge(max_n=7))
def test_contract_then_counts(gv):
    g, (u, v) = gv
    h, vmap = g.contract_edge(u, v)
    assert h.n == g.n - 1
    assert vmap.source_order == g.n
    assert vmap.target_order == h.n
    # Every source vertex survives a contraction.
    assert all(vmap.image(x) is not None for x in range(g.n))


@given(graphs_with_edge(max_n=7))
def test_subdivide_preserves_degrees_elsewhere(gv):
    g, (u, v) = gv
    h, vmap = g.subdivide_edge(u, v)
    z = vmap.new_vertex
    assert h.degree(z) == 2
    assert h.edge_count == g.edge_count + 1
    for x in range(g.n):
        assert h.degree(x) == g.degree(x)


@given(graphs_with_vertex(max_n=7))
def test_delete_vertex_drops_incident_edges(gv):
    g, x = gv
    h, _ = g.delete_vertex(x)
    assert h.n == g.n - 1
    assert h.edge_count == g.edge_count - g.degree(x)

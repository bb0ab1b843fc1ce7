import hashlib

import pytest

from throttlekit.families import (
    MAX_ENUMERATION_ORDER,
    PARAMETRIC_FIXTURES,
    STATIC_FIXTURES,
    Fixture,
    _apply_op,
    _iso_classes,
    book,
    complete,
    corona,
    corona_tower,
    cycle,
    empty_graph,
    enumerate_graphs,
    ex11_57,
    family_6n7,
    fixture,
    matched_complete,
    matched_sum,
    parse_graph_expression,
    path,
    spider,
    star,
    star_plus_edge,
)
from throttlekit.graph import Graph
from throttlekit.iso import are_isomorphic

# Counts of graphs on n vertices up to isomorphism (all / connected).
ISO_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_ISO_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
# sha1 of repr([g.adjacency for g in _iso_classes(n)]): which
# representatives enumeration keeps, their labels and their order.
ENUMERATION_DIGESTS = {
    1: "a263fe0345d996f566cd621ad5df79370ab410e4",
    2: "71e6919706a64a1301b2aa7d8e63ec3d7a19d783",
    3: "4750de6db2f17e490a1b198d2a718c619475ef13",
    4: "0eeb30f26123e47b434464cb1c96cbaeb1b21b92",
    5: "7b8b010eea944fded601cc957dae33d8d7d17244",
    6: "da9377efdd3275e76bb9fbd6c1cbee772d17b8cd",
    7: "5804a2d5bb4a281ec51535d71d8f9b756bc198cd",
    8: "b8b4c8ca09622ee94fdf7fd89ace62444d797391",
}


def test_basic_generators():
    assert path(1).n == 1
    assert path(4).edges() == ((0, 1), (1, 2), (2, 3))
    assert cycle(3) == complete(3)
    assert cycle(5).edge_count == 5
    assert complete(4).edge_count == 6
    assert empty_graph(3).edge_count == 0
    assert star(5).degree(0) == 4
    assert all(star(5).degree(v) == 1 for v in range(1, 5))


def test_generator_guards():
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        spider([2, 2])
    with pytest.raises(ValueError):
        spider([2, 0, 1])
    with pytest.raises(ValueError):
        corona(path(2), 0)


def test_spider_structure():
    g, center = spider([2, 2, 1, 1])
    assert center == 0
    assert g.n == 7
    assert g.degree(0) == 4
    degrees = sorted(g.degree(v) for v in range(g.n))
    assert degrees == [1, 1, 1, 1, 2, 2, 4]


def test_corona_structure():
    g = corona(path(3), 2)
    assert g.n == 9
    # Each base vertex keeps its base degree and gains two leaves.
    assert g.degree(1) == 4
    assert sum(1 for v in range(g.n) if g.degree(v) == 1) == 6


def test_matched_sum_validates_matching():
    with pytest.raises(ValueError):
        matched_sum(path(2), path(3), [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        matched_sum(path(2), path(2), [(0, 0)])
    with pytest.raises(ValueError):
        matched_sum(path(2), path(2), [(0, 0), (0, 1)])
    g = matched_sum(path(2), path(2), [(0, 1), (1, 0)])
    assert g.n == 4
    assert g.edge_count == 4


def test_matched_complete_fixture():
    fx = matched_complete(3)
    g = fx.graph
    assert g.n == 6
    assert g.edge_count == 9
    assert fx.edges["m1"] == (0, 3)
    assert all(g.has_edge(u, v) for u, v in fx.edges.values())


def test_book_structure():
    g, spine = book(3)
    assert g.n == 8
    assert g.has_edge(*spine)
    assert g.degree(spine[0]) == g.degree(spine[1]) == 4
    # Every page vertex sits in a triangle with the spine.
    for v in range(g.n):
        if v not in spine:
            assert g.degree(v) == 2


def test_family_6n7_structure():
    fx = family_6n7(path(2))
    g = fx.graph
    assert g.n == 7
    assert fx.meta["host_order"] == "2"
    # One deep leaf hangs off the second pendant of host vertex 1.
    assert g.degree(fx.vertices["u1_3"]) == 1
    assert g.has_edge(fx.vertices["u1_2"], fx.vertices["u1_3"])
    assert g.degree(fx.vertices["v1"]) == 3
    assert family_6n7(cycle(6)).graph.n == 21
    with pytest.raises(ValueError):
        family_6n7(path(3))  # odd host order
    with pytest.raises(ValueError):
        family_6n7(Graph(4, [(0, 1)]))  # disconnected host
    assert family_6n7(Graph(4, [(0, 1)]), force=True).graph.n == 14


def test_ex11_57_structure():
    fx = ex11_57(path(2))
    g = fx.graph
    assert g.n == 7
    assert g.degree(fx.vertices["tip"]) == 1
    assert g.has_edge(fx.vertices["ell"], fx.vertices["tip"])
    assert ex11_57(cycle(6)).graph.n == 19


def test_star_plus_edge_structure():
    fx = star_plus_edge(6)
    g = fx.graph
    assert g.n == 6
    assert g.is_universal(fx.vertices["c"])
    assert g.has_edge(*fx.edges["e"])
    assert g.edge_count == 6


def test_corona_tower_structure():
    fx = corona_tower(path(2))
    g = fx.graph
    assert g.n == 9
    assert g.is_universal(fx.vertices["u"])
    fx3 = corona_tower(path(3))
    assert fx3.graph.n == 13


def test_static_fixtures_load():
    for name in STATIC_FIXTURES:
        fx = fixture(name)
        assert fx.graph.n >= 1
        assert fx.meta["name"] == name
    with pytest.raises(ValueError):
        fixture("no_such_fixture")


def test_static_fixture_shapes():
    assert fixture("fig1_base").graph.n == 8
    assert parse_graph_expression("family_6n7:fig1_base").graph.n == 28
    spider6 = fixture("fig2_spider_plus_e")
    assert spider6.graph.n == 19
    assert "e" in spider6.edges
    assert fixture("fig5_K2corona").graph.n == 6
    assert fixture("fig7_subdiv").graph.n == 9


def test_parse_atoms():
    assert parse_graph_expression("K4").graph == complete(4)
    assert parse_graph_expression("P5").graph == path(5)
    assert parse_graph_expression("C6").graph == cycle(6)
    assert parse_graph_expression("E3").graph == empty_graph(3)
    assert parse_graph_expression("path:5").graph == path(5)
    assert parse_graph_expression("spider:2,2,1,1").graph.n == 7


def test_parse_operations():
    fx = parse_graph_expression("star:5/se:0-1")
    assert fx.graph.n == 6
    assert "z_0-1" in fx.vertices

    fx = parse_graph_expression("fig4_twin/dv:x")
    assert fx.graph.n == fixture("fig4_twin").graph.n - 1

    fx = parse_graph_expression("P4/de:1-2")
    assert fx.graph.edge_count == 2

    fx = parse_graph_expression("P4/ae:0-3")
    assert are_isomorphic(fx.graph, cycle(4))

    fx = parse_graph_expression("C4/ce:0-1")
    assert are_isomorphic(fx.graph, cycle(3))
    assert "y_0-1" in fx.vertices


def test_parse_named_edge_and_vertex_refs():
    fx = parse_graph_expression("fig5_K2corona/ce:e")
    assert are_isomorphic(fx.graph, star(5))
    fx2 = parse_graph_expression("book:3/ce:e")
    assert fx2.graph.n == 7


def test_parse_edge_refs_with_dashed_names():
    # Names made by se and ce hold a dash, and may stand at either end
    # of an edge reference: the split is the one whose sides both name
    # vertices.
    for expr in ("P4/se:0-1/de:z_0-1-0", "P4/se:0-1/de:0-z_0-1"):
        fx = parse_graph_expression(expr)
        z = fx.vertices["z_0-1"]
        assert not fx.graph.has_edge(z, 0) and fx.graph.has_edge(z, 1)
    for expr in ("C5/ce:1-2/de:y_1-2-0", "C5/ce:1-2/de:0-y_1-2"):
        fx = parse_graph_expression(expr)
        assert are_isomorphic(fx.graph, path(4))
        assert fx.graph.degree(fx.vertices["y_1-2"]) == 1
    fx = parse_graph_expression("P4/se:0-1/ae:z_0-1-3")
    assert fx.graph.has_edge(fx.vertices["z_0-1"], 3)
    # A reference that two splits resolve names no one edge.
    fx = Fixture(path(3), vertices={"a": 0, "a-b": 1, "b-c": 1, "c": 2})
    with pytest.raises(ValueError,
                       match="ambiguous edge reference 'a-b-c': it splits "
                             "into 2 vertex pairs"):
        _apply_op(fx, "de:a-b-c")
    with pytest.raises(ValueError, match="unknown edge reference 'z_0-9'"):
        parse_graph_expression("P4/se:0-1/de:z_0-9")


def test_corona_leaf_count_error_names_the_form():
    with pytest.raises(ValueError,
                       match="^corona takes integer arguments, got 'x'$"):
        parse_graph_expression("corona:P3,x")


def test_parse_rejects_nonsense():
    for expr in [
        "mystery:3",
        "path",           # missing argument
        "path:x",
        "K4:2",           # atoms take no arguments
        "P4/xx:0-1",
        "P4/ae:0-1",      # edge already present
        "P4/de:0-2",      # edge absent
        "P4/dv:banana",
        "corona:P3",      # needs two arguments
        "spider:2,2",     # too few legs
    ]:
        with pytest.raises(ValueError):
            parse_graph_expression(expr)


def test_parametric_catalog_is_honest():
    # Every advertised head must parse with a plausible argument.
    samples = {
        "path:n": "path:4", "cycle:n": "cycle:4", "complete:n": "complete:4",
        "empty:n": "empty:4", "star:n": "star:4",
        "spider:a1,a2,...": "spider:1,1,1", "corona:H,r": "corona:P2,1",
        "book:k": "book:2", "family_6n7:H": "family_6n7:P2",
        "matched_complete:r": "matched_complete:2", "ex11_57:H": "ex11_57:P2",
        "star_plus_edge:n": "star_plus_edge:4", "corona_tower:H": "corona_tower:P2",
    }
    assert set(samples) == set(PARAMETRIC_FIXTURES)
    for expr in samples.values():
        assert parse_graph_expression(expr).graph.n >= 1


@pytest.mark.parametrize("n", range(1, 9))
def test_iso_class_counts(n):
    assert sum(1 for _ in enumerate_graphs(n)) == ISO_COUNTS[n]
    assert sum(
        1 for _ in enumerate_graphs(n, connected_only=True)
    ) == CONNECTED_ISO_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_output_is_pinned(n):
    text = repr([g.adjacency for g in _iso_classes(n)])
    assert hashlib.sha1(text.encode()).hexdigest() == ENUMERATION_DIGESTS[n]


def test_iso_classes_are_pairwise_non_isomorphic():
    reps = list(enumerate_graphs(4))
    for i, g in enumerate(reps):
        for h in reps[i + 1:]:
            assert not are_isomorphic(g, h)


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        list(enumerate_graphs(0))
    with pytest.raises(ValueError):
        list(enumerate_graphs(MAX_ENUMERATION_ORDER + 1))

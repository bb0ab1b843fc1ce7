import pytest
from hypothesis import given

from throttlekit.domination import (
    DominationCertificate,
    domination_number,
    edge_maximum_dominating_sets,
    external_private_neighbors,
    is_dominating_set,
    minimum_dominating_sets,
    optimal_dominating_set,
    optimal_dominating_sets,
)
from throttlekit.families import (
    complete,
    corona,
    cycle,
    enumerate_graphs,
    path,
    star,
)
from throttlekit.graph import Graph

from . import oracles
from .strategies import graphs


def test_is_dominating_set():
    g = path(4)
    assert is_dominating_set(g, g.vertex_set([1, 2]))
    assert is_dominating_set(g, g.vertex_set([1, 3]))
    assert not is_dominating_set(g, g.vertex_set([0]))
    assert not is_dominating_set(g, g.vertex_set(()))
    assert is_dominating_set(Graph(0), Graph(0).vertex_set(()))


def test_domination_number_known_values():
    assert domination_number(star(8))[0] == 1
    assert domination_number(path(4))[0] == 2
    assert domination_number(path(7))[0] == 3
    assert domination_number(cycle(9))[0] == 3
    assert domination_number(complete(6))[0] == 1
    # Isolated vertices must dominate themselves.
    assert domination_number(Graph(3))[0] == 3


def test_domination_number_matches_oracle_exhaustively():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            k, wit = domination_number(g)
            assert k == oracles.naive_gamma(g)
            assert is_dominating_set(g, wit)
            assert len(wit) == k
            # The witness is the colex-first minimum dominating set.
            least = min(oracles.naive_minimum_dominating_sets(g),
                        key=oracles.colex_key)
            assert wit.mask == oracles.colex_key(least)


def test_minimum_dominating_sets_are_complete():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            masks = [d.mask for d in minimum_dominating_sets(g)]
            assert all(a < b for a, b in zip(masks, masks[1:]))
            want = oracles.naive_minimum_dominating_sets(g)
            assert masks == sorted(map(oracles.colex_key, want))


def test_ranked_dominating_sets_match_oracle_exhaustively():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            edge_max, optimal = oracles.naive_optimal_dominating_sets(g)
            assert [d.mask for d in edge_maximum_dominating_sets(g)] == \
                [oracles.colex_key(d) for d in edge_max]
            assert [d.mask for d in optimal_dominating_sets(g)] == \
                [oracles.colex_key(d) for d in optimal]


def test_minimum_dominating_sets_on_path():
    got = {tuple(d.members) for d in minimum_dominating_sets(path(4))}
    assert got == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_edge_maximum_prefers_adjacent_pairs():
    # Both endpoints of the middle edge dominate the path on four
    # vertices; only {1, 2} spans an edge.
    picked = edge_maximum_dominating_sets(path(4))
    assert [tuple(d.members) for d in picked] == [(1, 2)]


def test_optimal_sets_tiebreak_is_deterministic():
    g = cycle(6)
    first = optimal_dominating_sets(g)
    second = optimal_dominating_sets(g)
    assert [d.members for d in first] == [d.members for d in second]
    assert all(len(d) == 2 for d in first)


def test_external_private_neighbors_matches_oracle():
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            gamma, _ = domination_number(g)
            for d in minimum_dominating_sets(g):
                for v in d:
                    got = set(external_private_neighbors(g, d, v))
                    assert got == oracles.naive_epn(g, d.members, v)


def test_external_private_neighbors_examples():
    g = star(5)
    d = g.vertex_set([0])
    assert external_private_neighbors(g, d, 0).members == (1, 2, 3, 4)
    g2 = corona(path(2), 1)
    d2 = g2.vertex_set([0, 1])
    assert external_private_neighbors(g2, d2, 0).members == (2,)
    with pytest.raises(ValueError):
        external_private_neighbors(g, d, 3)  # not in the set


def test_certificate_validates():
    for g in [path(5), cycle(6), star(4), corona(cycle(3), 1)]:
        cert = optimal_dominating_set(g)
        assert isinstance(cert, DominationCertificate)
        cert.validate()
        assert is_dominating_set(g, cert.vertices)
        d = cert.to_dict()
        assert d["order"] == g.n
        assert len(d["vertices"]) == domination_number(g)[0]


def test_validate_catches_a_lower_ranked_or_later_set():
    g = path(4)
    cert = optimal_dominating_set(g)
    assert cert.vertices.members == (1, 2)
    # {0, 2} and {1, 3} dominate P4 with no inner edge and degree sum 3;
    # {1, 2} spans an edge.  C4's four adjacent pairs tie on (1, 4), so
    # the colex-first one, {0, 1}, is the certificate there.
    c4 = cycle(4)
    forgeries = [(g, [0, 2], 0, 3), (g, [1, 3], 0, 3), (c4, [1, 2], 1, 4)]
    for h, members, inner, degrees in forgeries:
        d = h.vertex_set(members)
        forged = DominationCertificate(
            graph=h, vertices=d, inner_edge_count=inner, degree_sum=degrees,
            private_neighbors={v: external_private_neighbors(h, d, v).members
                               for v in d})
        with pytest.raises(AssertionError, match="ranks higher"):
            forged.validate()
    optimal_dominating_set(c4).validate()
    assert optimal_dominating_set(c4).vertices.members == (0, 1)


def test_validate_catches_private_neighbors_off_the_set():
    cert = optimal_dominating_set(path(4))
    table = cert.private_neighbors
    for private in [{**table, 0: ()}, {1: table[1]}]:
        forged = DominationCertificate(
            graph=cert.graph, vertices=cert.vertices,
            inner_edge_count=cert.inner_edge_count,
            degree_sum=cert.degree_sum, private_neighbors=private)
        with pytest.raises(AssertionError, match="not keyed by the set"):
            forged.validate()


def test_certificate_private_neighbors_cover_the_set():
    cert = optimal_dominating_set(corona(cycle(4), 1))
    # In a leafed cycle every base vertex keeps its own leaf private.
    assert all(len(p) >= 1 for p in cert.private_neighbors.values())


@given(graphs(min_n=1, max_n=7))
def test_domination_is_monotone_under_supersets(g):
    k, wit = domination_number(g)
    grown = wit | g.vertex_set(v for v in range(g.n) if v not in wit)
    assert is_dominating_set(g, grown)


@given(graphs(min_n=1, max_n=7))
def test_gamma_bounds(g):
    k, _ = domination_number(g)
    assert 1 <= k <= g.n
    # Half-order ceiling once no vertex is isolated.
    if len(g.isolated_vertices()) == 0:
        assert 2 * k <= g.n

import random

import networkx as nx
import pytest
from hypothesis import given
from networkx.readwrite.graph6 import n_to_data

from throttlekit.graph import Graph
from throttlekit.graphio import (
    FormatError,
    format_edge_list,
    format_graph6,
    parse_graph6,
    read_edge_list,
    read_graph6,
    load_graphs,
)

from .strategies import graphs


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@given(graphs(min_n=0, max_n=12))
def test_graph6_round_trip(g):
    assert parse_graph6(format_graph6(g)) == g


@given(graphs(min_n=0, max_n=12))
def test_graph6_matches_networkx_encoder(g):
    ours = format_graph6(g)
    theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    assert ours == theirs


@given(graphs(min_n=0, max_n=12))
def test_parse_agrees_with_networkx_parser(g):
    text = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    parsed = parse_graph6(text)
    assert parsed.n == g.n
    assert parsed.edges() == g.edges()


def test_graph6_known_values():
    assert format_graph6(Graph(5, [(0, 2), (0, 4), (1, 3), (3, 4)])) == "DQc"
    p4 = parse_graph6("Ch")
    assert p4.n == 4
    assert p4.edges() == ((0, 1), (1, 2), (2, 3))


def test_graph6_header_accepted():
    g = Graph(3, [(0, 1)])
    coded = format_graph6(g, header=True)
    assert coded.startswith(">>graph6<<")
    assert parse_graph6(coded) == g


def test_graph6_rejects_garbage():
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError, match="invalid graph6 byte 62") as exc:
        parse_graph6("C>")  # a data byte just below the graph6 range
    assert exc.value.offset == 1
    with pytest.raises(FormatError):
        parse_graph6("C")  # truncated: order 4 needs one data byte
    with pytest.raises(FormatError, match="graph6 data is not ascii"):
        parse_graph6("C\u00e9")


@pytest.mark.parametrize("record, bare, headed", [
    ("C" + chr(127), 1, 11),  # invalid data byte
    ("CAB", 3, 13),  # one adjacency byte too many
    ("A@", 1, 11),  # nonzero padding bits
    ("~", 1, 11),  # truncated order field
    ("G??" + chr(127) + "??", 3, 13),  # invalid byte mid-record
    ("G??" + chr(127) + "?" + chr(127), 3, 13),  # the first bad byte wins
    ("A" + chr(127), 1, 11),  # invalid byte beats its nonzero padding
])
def test_graph6_error_offsets(record, bare, headed):
    for text, offset in ((record, bare), (">>graph6<<" + record, headed)):
        with pytest.raises(FormatError) as exc:
            parse_graph6(text)
        assert exc.value.offset == offset, text


def _sparse(n):
    """A seeded graph of order n with about 2n edges."""
    rnd = random.Random(n)
    return Graph(n, {tuple(sorted(rnd.sample(range(n), 2)))
                     for _ in range(2 * n)})


@pytest.mark.parametrize("n", [62, 63, 64, 65, 100, 127, 128, 300])
def test_graph6_agrees_with_networkx_past_one_byte_orders(n):
    # Order 62 is the last one-byte N(n) field; from 63 it takes four.
    g = _sparse(n)
    theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    assert format_graph6(g) == theirs
    assert parse_graph6(theirs) == g


@pytest.mark.parametrize("n", [4095, 4096, 5000])
def test_graph6_order_field_matches_networkx(n):
    # The high group of the four-byte field is first nonzero at 4096.
    # networkx's encoder takes seconds here, so its N(n) field stands in
    # for it; the data bytes are checked against it at the orders above.
    g = Graph(n, [(0, 1), (1, 2), (n - 2, n - 1)])
    text = format_graph6(g)
    assert text[:4] == bytes(63 + x for x in n_to_data(n)).decode()
    assert parse_graph6(text) == g


def test_graph6_eight_byte_order_field():
    # "~~" and six groups also spell an order; 63 is "~~?????~" there and
    # "~??~" in the four-byte form that format_graph6 writes.
    g = _sparse(63)
    text = format_graph6(g)
    assert text[:4] == "~??~"
    assert parse_graph6("~~?????~" + text[4:]) == parse_graph6(text) == g


def test_graph6_rejects_padding_bits():
    # Order 2 uses one data byte with five padding bits; they must be zero.
    with pytest.raises(FormatError):
        parse_graph6("A" + chr(63 + 1))


def test_read_graph6_multiple_lines_with_blanks():
    text = "\n".join(["Cr", "", "DQc", ""])
    gs = list(read_graph6(text))
    assert [g.n for g in gs] == [4, 5]


def test_read_graph6_reports_line_numbers():
    with pytest.raises(FormatError) as exc:
        list(read_graph6("Cr\n@@@bad@@@\n"))
    assert exc.value.line == 2


@given(graphs(min_n=0, max_n=10))
def test_edge_list_round_trip(g):
    parsed = list(read_edge_list(format_edge_list(g)))
    assert parsed == [g]


def test_edge_list_format_is_readable():
    text = format_edge_list(Graph(3, [(0, 2)]))
    assert text == "3\n0 2\n"


def test_edge_list_multiple_records_and_comments():
    gs = list(read_edge_list("2\n0 1\n# comment\n3  # order line\n0 2\n"))
    assert [g.n for g in gs] == [2, 3]
    assert gs[1].edges() == ((0, 2),)


def test_edge_list_rejects_malformed_lines():
    with pytest.raises(FormatError):
        list(read_edge_list("0 1\n"))  # edge before any order line
    with pytest.raises(FormatError):
        list(read_edge_list("3\n0 1 2\n"))
    with pytest.raises(FormatError) as exc:
        list(read_edge_list("2\n0 5\n"))  # endpoint out of range
    assert exc.value.line == 1
    with pytest.raises(FormatError):
        list(read_edge_list("x\n"))
    with pytest.raises(FormatError, match="negative order -1") as exc:
        list(read_edge_list("2\n0 1\n-1\n"))
    assert exc.value.line == 3
    with pytest.raises(FormatError, match="expected 'u v' integers") as exc:
        list(read_edge_list("2\n0 x\n"))
    assert exc.value.line == 2


def test_edge_list_refuses_orders_graph6_cannot_encode():
    assert [g.n for g in read_edge_list("258047\n0 1\n")] == [258047]
    for order in (258048, 10 ** 13):
        # Refused on its own line, before a graph of that order is built.
        with pytest.raises(FormatError, match="graph6 order 258047") as exc:
            list(read_edge_list(f"2\n0 1\n{order}\n0 1\n"))
        assert exc.value.line == 3


def test_load_graphs_both_formats(tmp_path):
    g = Graph(4, [(0, 1), (2, 3)])
    p6 = tmp_path / "in.g6"
    p6.write_text(format_graph6(g) + "\n")
    assert list(load_graphs(p6, "graph6")) == [g]
    pel = tmp_path / "in.edges"
    pel.write_text(format_edge_list(g))
    assert list(load_graphs(pel, "edgelist")) == [g]


def test_load_graphs_unknown_format(tmp_path):
    p = tmp_path / "x"
    p.write_text("")
    with pytest.raises(ValueError):
        list(load_graphs(p, "dot"))

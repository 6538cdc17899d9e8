"""graph6 encoding, edge lists, and raw complex files."""

import networkx as nx
import pytest
from hypothesis import given

import flagrecon as fr
from oracles import graphs, small_corpus


def to_networkx(g: fr.Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(g.labels)
    G.add_edges_from(g.edges())
    return G


# ------------------------------------------------------------------- graph6


@pytest.mark.parametrize(
    "text,builder",
    [
        ("?", fr.Graph((), ())),
        ("@", fr.complete(1)),
        ("A_", fr.complete(2)),
        ("A?", fr.complement(fr.complete(2))),
        ("BW", fr.path(3)),
        ("Dhc", fr.cycle(5)),
        ("E]~o", fr.cross_polytope(3)),
    ],
)
def test_parse_graph6_known_strings(text, builder):
    g = fr.parse_graph6(text)
    assert fr.are_isomorphic(g, builder) or g == builder


def test_parse_graph6_accepts_the_optional_header():
    assert fr.parse_graph6(">>graph6<<Dhc") == fr.parse_graph6("Dhc")


def test_parse_graph6_labels_are_dense_integers():
    g = fr.parse_graph6("Dhc")
    assert g.labels == ("0", "1", "2", "3", "4")


@pytest.mark.parametrize("name,g", small_corpus())
def test_emit_parse_round_trip_preserves_adjacency(name, g):
    back = fr.parse_graph6(fr.emit_graph6(g))
    assert back.adj == g.adj


@given(graphs(max_n=13))
def test_round_trip_on_random_graphs(g):
    text = fr.emit_graph6(g)
    back = fr.parse_graph6(text)
    assert back.adj == g.adj
    assert fr.emit_graph6(back) == text


@given(graphs(max_n=13))
def test_emit_agrees_with_networkx(g):
    expected = nx.to_graph6_bytes(to_networkx(g), nodes=list(g.labels), header=False)
    assert fr.emit_graph6(g).encode() == expected.strip()


@given(graphs(max_n=13))
def test_parse_agrees_with_networkx(g):
    text = nx.to_graph6_bytes(to_networkx(g), nodes=list(g.labels), header=False)
    parsed = fr.parse_graph6(text.decode())
    assert parsed.adj == g.adj


def test_emit_rejects_more_than_62_vertices():
    big = fr.Graph.from_edges([str(i) for i in range(63)], [])
    with pytest.raises(fr.FormatError):
        fr.emit_graph6(big)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "~??",  # long form
        "D",  # truncated body
        "Dhcc",  # oversized body
        "Dh\x1f",  # byte below 63
        "!",  # header byte below 63
        "A" + chr(63 + 0b010000),  # nonzero padding bits for n = 2
        "Dhé",  # not ASCII
        "\x1cA_\x85",  # a separator and a Unicode space, neither stripped
        "A_\xa0",  # no-break space after a valid line
        "\x1fh",  # separator before a valid header
    ],
)
def test_parse_graph6_rejects_malformed_input(text):
    with pytest.raises(fr.FormatError):
        fr.parse_graph6(text)


def test_parse_graph6_rejects_header_byte_127():
    # 127 is not a graph6 byte; read as a size it would claim 64 vertices
    with pytest.raises(fr.FormatError, match="header byte 127"):
        fr.parse_graph6("\x7f" + "?" * 336)


# --------------------------------------------------------------- edge lists


def test_parse_edge_list_basic():
    g = fr.parse_edge_list("a b\nb c\n\nc d\n")
    assert g.labels == ("a", "b", "c", "d")  # first appearance order
    assert g.edge_count == 3


def test_parse_edge_list_collapses_repeats():
    g = fr.parse_edge_list("a b\nb a\na b\n")
    assert g.edge_count == 1


def test_parse_edge_list_rejects_self_loop_with_line_number():
    with pytest.raises(fr.FormatError, match="line 2"):
        fr.parse_edge_list("a b\nc c\n")


def test_parse_edge_list_rejects_wrong_token_count():
    with pytest.raises(fr.FormatError, match="line 1"):
        fr.parse_edge_list("a b c\n")
    with pytest.raises(fr.FormatError, match="line 3"):
        fr.parse_edge_list("a b\nb c\nd\n")


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
def test_parse_edge_list_ends_lines_at_line_feeds_only(sep):
    with pytest.raises(fr.FormatError, match="line 1: expected two vertex tokens, got 4"):
        fr.parse_edge_list(f"0 1{sep}2 3")
    with pytest.raises(fr.FormatError, match="line 2: expected two vertex tokens, got 3"):
        fr.parse_edge_list(f"0 1\n2{sep}3 4\n")


def test_parse_edge_list_reads_a_separator_between_tokens_as_whitespace():
    assert fr.parse_edge_list("0\x1c1") == fr.parse_edge_list("0 1")


def test_parse_edge_list_reads_crlf_lines():
    g = fr.parse_edge_list("a b\r\nb c\r\n")
    assert g == fr.parse_edge_list("a b\nb c\n")
    with pytest.raises(fr.FormatError, match="line 2"):
        fr.parse_edge_list("a b\r\nc c\r\n")


def test_parse_edge_list_of_nothing_is_the_empty_graph():
    assert fr.parse_edge_list("") == fr.Graph((), ())


# ------------------------------------------------------------ complex files


def test_parse_complex_closes_faces_downward():
    L = fr.parse_complex("a b c\nc d\n")
    assert fr.f_vector(L) == (4, 4, 1)
    assert L.has_simplex(["a", "c"])


def test_parse_complex_single_vertices_are_allowed():
    L = fr.parse_complex("a\nb\n")
    assert fr.f_vector(L) == (2,)


def test_parse_complex_rejects_repeated_vertex_with_line_number():
    with pytest.raises(fr.FormatError, match="line 2"):
        fr.parse_complex("a b\nc c d\n")


@pytest.mark.parametrize("sep", ["\x1c", "\x85", "\u2028"])
def test_parse_complex_ends_lines_at_line_feeds_only(sep):
    assert fr.f_vector(fr.parse_complex(f"a b{sep}c\n")) == (3, 3, 1)
    with pytest.raises(fr.FormatError, match="line 2"):
        fr.parse_complex(f"a b\nb{sep}b\n")


def test_parse_complex_reads_crlf_lines():
    assert fr.parse_complex("a b\r\nb c\r\n") == fr.parse_complex("a b\nb c\n")


def test_parse_complex_feeds_the_homology_pipeline():
    # hollow triangle drawn as three segments
    L = fr.parse_complex("a b\nb c\nc a\n")
    h = fr.reduced_homology(L)
    assert str(h.group(1)) == "Z"

"""graph6 encoding, edge lists, and raw complex files."""

from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given

import flagrecon as fr
from flagrecon import complexes
from flagrecon.cli import main
from oracles import graphs, packed_certificate, small_corpus


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


def layout_bits(data: bytes, width: int, offset: int, nbits: int) -> str:
    """The first ``nbits`` bits of ``data`` read ``width`` bits to a byte, after zero padding."""
    bits = "".join(f"{b - offset:0{width}b}" for b in data)
    assert 0 <= len(bits) - nbits < width and set(bits[nbits:]) <= {"0"}
    return bits[:nbits]


def check_shared_layout(g: fr.Graph) -> None:
    """graph6 and certificates carry one bit stream, checked against the bitwise oracle."""
    n = g.vertex_count
    nbits = n * (n - 1) // 2
    text = fr.emit_graph6(g)
    assert fr.parse_graph6(text).adj == g.adj
    oracle = packed_certificate(n, g.adj, range(n))
    assert layout_bits(text[1:].encode(), 6, 63, nbits) == layout_bits(oracle, 8, 0, nbits)
    cert = fr.canonical_form(g)
    body = cert.partition(b":")[2]
    rep = fr.emit_graph6(fr.graph_from_canonical_form(cert))
    assert layout_bits(rep[1:].encode(), 6, 63, nbits) == layout_bits(body, 8, 0, nbits)


def test_graph6_and_certificates_share_one_layout_on_all_small_graphs():
    small = [g for n in range(1, 7) for g in fr.enumerate_graphs(n)]
    assert len(small) == 208
    for g in small:
        check_shared_layout(g)


@given(graphs(max_n=13))
def test_graph6_and_certificates_share_one_layout(g):
    check_shared_layout(g)


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
    with pytest.raises(fr.FormatError, match="line 1: whitespace"):
        fr.parse_edge_list(f"0 1{sep}2 3")
    with pytest.raises(fr.FormatError, match="line 2: whitespace"):
        fr.parse_edge_list(f"0 1\n2{sep}3 4\n")


def test_parse_edge_list_rejects_a_separator_between_tokens():
    with pytest.raises(fr.FormatError, match=r"line 1: whitespace '\\x1c' is not a token"):
        fr.parse_edge_list("0\x1c1")


NON_ASCII_WHITESPACE = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\xa0"]


@pytest.mark.parametrize("sep", NON_ASCII_WHITESPACE)
@pytest.mark.parametrize("parse", [fr.parse_edge_list, fr.parse_complex])
def test_only_ascii_whitespace_separates_tokens(parse, sep):
    for text, line in [(f"0{sep}1", 1), (f"0 1\n1 2{sep}\n", 2), (f"0 1\r\n{sep}1 2\r\n", 2)]:
        with pytest.raises(fr.FormatError, match=f"line {line}: whitespace"):
            parse(text)
    assert parse("0\t1\x0b\r\n1\x0c2 \r\n") == parse("0 1\n1 2\n")


@pytest.mark.parametrize("sep", NON_ASCII_WHITESPACE)
def test_edge_list_with_non_ascii_whitespace_exits_two(tmp_path, capsys, sep):
    f = tmp_path / "bad.edges"
    f.write_text(f"0 1\n1{sep}2\n", encoding="utf-8")
    assert main(["analyze", "--format", "edges", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: whitespace")


def path_edges(n):
    return "".join(f"v{i} v{i + 1}\n" for i in range(n - 1))


def test_parse_edge_list_takes_up_to_the_vertex_cap():
    g = fr.parse_edge_list(path_edges(fr.MAX_EDGE_LIST_VERTICES))
    assert g.vertex_count == fr.MAX_EDGE_LIST_VERTICES == 4096
    assert g.labels[:3] == ("v0", "v1", "v2")


def test_edge_list_over_the_vertex_cap_exits_two(tmp_path, capsys):
    f = tmp_path / "long.edges"
    f.write_text(path_edges(fr.MAX_EDGE_LIST_VERTICES + 1), encoding="utf-8")
    assert main(["analyze", "--format", "edges", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: edge list names 4097 vertices")
    assert "cap of 4096" in err


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
    with pytest.raises(fr.FormatError, match="line 1: whitespace"):
        fr.parse_complex(f"a b{sep}c\n")
    with pytest.raises(fr.FormatError, match="line 2"):
        fr.parse_complex(f"a b\nb{sep}b\n")


def test_parse_complex_reads_crlf_lines():
    assert fr.parse_complex("a b\r\nb c\r\n") == fr.parse_complex("a b\nb c\n")


def test_parse_complex_takes_a_line_of_16_tokens():
    L = fr.parse_complex(" ".join(f"v{i}" for i in range(16)) + "\n")
    assert sum(fr.f_vector(L)) == 65535


def test_parse_complex_refuses_a_line_of_17_tokens_before_closing_it(monkeypatch):
    closures = []  # the subface enumerations build_complex starts
    monkeypatch.setattr(
        complexes, "itertools", SimpleNamespace(combinations=lambda *a: closures.append(a) or [])
    )
    with pytest.raises(ValueError, match="^complex of 131071 faces or more is over MAX_FACES = "):
        fr.parse_complex(" ".join(f"v{i}" for i in range(17)) + "\n")
    assert closures == []


@pytest.mark.parametrize("budget,admitted", [(10, False), (11, True)])
def test_overlapping_lines_count_each_face_once(monkeypatch, budget, admitted):
    # 4 vertices, then 3 edges and a triangle, then 2 more edges and a triangle: 11 faces
    monkeypatch.setattr(complexes, "MAX_FACES", budget)
    if admitted:
        assert fr.f_vector(fr.parse_complex("a b c\nb c d\n")) == (4, 5, 2)
    else:
        over = f"^complex of 11 faces or more is over MAX_FACES = {budget}$"
        with pytest.raises(ValueError, match=over):
            fr.parse_complex("a b c\nb c d\n")


def test_parse_complex_feeds_the_homology_pipeline():
    # hollow triangle drawn as three segments
    L = fr.parse_complex("a b\nb c\nc a\n")
    h = fr.reduced_homology(L)
    assert str(h.group(1)) == "Z"

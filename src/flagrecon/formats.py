"""Interchange formats: graph6, whitespace edge lists, maximal-face complex files.

graph6 support is deliberately short-form only (up to 62 vertices): that is
the scale the rest of the library targets, and long-form headers are
rejected loudly rather than half-supported.  graph6 shares its bit layout
with canonical certificates (``graphs.pack_triangle``), 6 bits to a byte.
"""

from __future__ import annotations

import re
from typing import Iterator

from .complexes import SimplicialComplex, build_complex
from .graphs import Graph, pack_triangle, unpack_triangle

__all__ = [
    "FormatError",
    "MAX_EDGE_LIST_VERTICES",
    "parse_graph6",
    "emit_graph6",
    "parse_edge_list",
    "parse_complex",
]


class FormatError(ValueError):
    """Malformed input text; the message carries the offending position."""


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 line; vertices come out labelled 0..n-1.

    Six bits of the upper-triangle layout per printable byte, offset 63;
    padding bits must be zero.  Only ASCII whitespace is stripped; any
    other byte meets the checks.
    """
    line = text.strip(" \t\n\r\x0b\x0c")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<") :]
    if not line:
        raise FormatError("empty graph6 input")
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError:
        raise FormatError("graph6 input must be ASCII") from None
    if data[0] == 126:
        raise FormatError("long-form graph6 (more than 62 vertices) is not supported")
    if not 63 <= data[0] <= 126:
        raise FormatError(f"graph6 header byte {data[0]} out of range")
    n = data[0] - 63
    body = data[1:]
    expected = (n * (n - 1) // 2 + 5) // 6
    if len(body) != expected:
        raise FormatError(
            f"graph6 body has {len(body)} byte(s), expected {expected} for {n} vertices"
        )
    packed = 0
    for ch in body:
        if not 63 <= ch <= 126:
            raise FormatError(f"graph6 byte {ch} out of range")
        packed = packed << 6 | ch - 63
    try:
        return unpack_triangle(n, packed, 6)
    except ValueError:
        raise FormatError("graph6 padding bits must be zero") from None


def emit_graph6(g: Graph) -> str:
    """Encode a graph (at most 62 vertices) as one short-form graph6 line.

    The encoding follows the graph's own vertex order, so round-trips
    through :func:`parse_graph6` are byte-identical.
    """
    n = g.vertex_count
    if n > 62:
        raise FormatError("short-form graph6 carries at most 62 vertices")
    packed, m = pack_triangle(g.adj, 6), (n * (n - 1) // 2 + 5) // 6
    return chr(n + 63) + "".join(chr(63 + (packed >> 6 * k & 63)) for k in reversed(range(m)))


MAX_EDGE_LIST_VERTICES = 4096  # an adjacency row is as wide as the highest vertex index

_FOREIGN_SPACE = re.compile(r"[^\S \t\r\x0b\x0c]")  # whitespace that is not ASCII


def _token_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, tokens)`` of each non-blank line; non-ASCII whitespace is an error."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        foreign = _FOREIGN_SPACE.search(raw)
        if foreign:
            raise FormatError(
                f"line {lineno}: whitespace {foreign.group()!r} is not a token separator"
            )
        parts = raw.split()
        if parts:
            yield lineno, parts


def parse_edge_list(text: str) -> Graph:
    """One 'u v' pair per line; labels are free-form tokens.

    Only a line feed ends a line, and only ASCII whitespace separates tokens.
    Vertex order is first appearance.  Repeated edges collapse silently;
    self-loops and malformed lines are errors that name the line.  More than
    ``MAX_EDGE_LIST_VERTICES`` distinct vertices is an error, raised before
    any graph is built.
    """
    edges: list[tuple[str, str]] = []
    for lineno, parts in _token_lines(text):
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected two vertex tokens, got {len(parts)}")
        u, v = parts
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u!r}")
        edges.append((u, v))
    labels = dict.fromkeys(w for edge in edges for w in edge)
    if len(labels) > MAX_EDGE_LIST_VERTICES:
        raise FormatError(
            f"edge list names {len(labels)} vertices, over the cap of {MAX_EDGE_LIST_VERTICES}"
        )
    return Graph.from_edges(labels, edges)


def parse_complex(text: str) -> SimplicialComplex:
    """One maximal simplex per line, as whitespace-separated vertex tokens.

    Only a line feed ends a line, and only ASCII whitespace separates tokens.
    The complex is the downward closure of the listed faces; vertex order is
    first appearance.  A repeated vertex inside a line is an error naming the
    line.  Past ``MAX_FACES`` faces, :func:`build_complex` raises.
    """
    faces: list[list[str]] = []
    for lineno, parts in _token_lines(text):
        if len(set(parts)) != len(parts):
            raise FormatError(f"line {lineno}: repeated vertex in simplex")
        faces.append(parts)
    return build_complex(dict.fromkeys(w for face in faces for w in face), faces)

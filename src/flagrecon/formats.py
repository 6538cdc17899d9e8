"""Interchange formats: graph6, whitespace edge lists, maximal-face complex files.

graph6 support is deliberately short-form only (up to 62 vertices): that is
the scale the rest of the library targets, and long-form headers are
rejected loudly rather than half-supported.
"""

from __future__ import annotations

from .complexes import SimplicialComplex, build_complex
from .graphs import Graph

__all__ = [
    "FormatError",
    "parse_graph6",
    "emit_graph6",
    "parse_edge_list",
    "parse_complex",
]


class FormatError(ValueError):
    """Malformed input text; the message carries the offending position."""


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 line; vertices come out labelled 0..n-1.

    The upper-triangle bits run column by column: (0,1), (0,2), (1,2),
    (0,3), ...  Six bits per printable byte, offset 63; padding bits must
    be zero.  Only ASCII whitespace is stripped; any other byte meets the checks.
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
    nbits = n * (n - 1) // 2
    body = data[1:]
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise FormatError(
            f"graph6 body has {len(body)} byte(s), expected {expected} for {n} vertices"
        )
    bits = []
    for ch in body:
        if not 63 <= ch <= 126:
            raise FormatError(f"graph6 byte {ch} out of range")
        val = ch - 63
        bits += [(val >> shift) & 1 for shift in range(5, -1, -1)]
    if any(bits[nbits:]):
        raise FormatError("graph6 padding bits must be zero")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(tuple(str(i) for i in range(n)), tuple(adj))


def emit_graph6(g: Graph) -> str:
    """Encode a graph (at most 62 vertices) as one short-form graph6 line.

    The encoding follows the graph's own vertex order, so round-trips
    through :func:`parse_graph6` are byte-identical.
    """
    n = g.vertex_count
    if n > 62:
        raise FormatError("short-form graph6 carries at most 62 vertices")
    out = [n + 63]
    acc = 0
    nbits = 0
    for j in range(1, n):
        row = g.adj[j]
        for i in range(j):
            acc = acc << 1 | (row >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


def parse_edge_list(text: str) -> Graph:
    """One 'u v' pair per line; labels are free-form tokens.

    Only a line feed ends a line.  Vertex order is first appearance.  Repeated
    edges collapse silently; self-loops and malformed lines are errors that
    name the line.
    """
    labels: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected two vertex tokens, got {len(parts)}")
        u, v = parts
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u!r}")
        for w in (u, v):
            if w not in seen:
                seen.add(w)
                labels.append(w)
        edges.append((u, v))
    return Graph.from_edges(labels, edges)


def parse_complex(text: str) -> SimplicialComplex:
    """One maximal simplex per line, as whitespace-separated vertex tokens.

    Only a line feed ends a line.  The complex is the downward closure of the
    listed faces; vertex order is first appearance.  A repeated vertex inside
    a line is an error naming the line.
    """
    labels: list[str] = []
    seen: set[str] = set()
    faces: list[list[str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(set(parts)) != len(parts):
            raise FormatError(f"line {lineno}: repeated vertex in simplex")
        for w in parts:
            if w not in seen:
                seen.add(w)
                labels.append(w)
        faces.append(parts)
    return build_complex(labels, faces)

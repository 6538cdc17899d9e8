"""Finite simple graphs: subgraph algebra, named families, exact canonical labelling.

Vertex identifiers are opaque strings.  Internally a graph keeps one integer
bitset of neighbour indices per vertex; induced subgraphs and clique search
then reduce to word-level bit operations, which is fast enough at the
dozens-of-vertices scale this library targets.

graph6 and canonical certificates share one bit layout, coded once in
:func:`pack_triangle` and :func:`unpack_triangle`; only the byte width
differs, so a deck prints graph6 straight from certificate bits.  Cards are
cut from the graph's bit rows.  ``canonical_form`` keeps no cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Graph",
    "full_subgraph",
    "vertex_deleted",
    "complement",
    "join",
    "disjoint_union",
    "is_connected",
    "canonical_form",
    "graph_from_canonical_form",
    "are_isomorphic",
    "vertex_orbits",
    "cycle",
    "path",
    "complete",
    "complete_multipartite",
    "cross_polytope",
    "torus_grid",
    "icosahedron",
    "generate",
    "FAMILIES",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable finite simple graph on labelled vertices.

    ``labels`` fixes the vertex order; ``adj[i]`` is the bitset of indices
    adjacent to ``labels[i]``.  Loops are rejected and adjacency must be
    symmetric.
    """

    labels: tuple[str, ...]
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate vertex label")
        if len(self.adj) != n:
            raise ValueError("adjacency row count does not match vertex count")
        for i, row in enumerate(self.adj):
            if row < 0 or row >> n:
                raise ValueError("adjacency bits reference unknown vertices")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {self.labels[i]!r}")
        above = 0  # bits above the diagonal: each has its mirror, and as many lie below
        for i, row in enumerate(self.adj):
            row = row >> i + 1 << i + 1
            above += row.bit_count()
            for j in iter_bits(row):
                if not self.adj[j] >> i & 1:
                    raise ValueError("adjacency must be symmetric")
        if 2 * above != sum(row.bit_count() for row in self.adj):
            raise ValueError("adjacency must be symmetric")

    @classmethod
    def from_edges(
        cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]]
    ) -> "Graph":
        labels = tuple(vertices)
        pos = {v: i for i, v in enumerate(labels)}
        if len(pos) != len(labels):
            raise ValueError("duplicate vertex label")
        adj = [0] * len(labels)
        for u, v in edges:
            if u not in pos or v not in pos:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {u!r}")
            adj[pos[u]] |= 1 << pos[v]
            adj[pos[v]] |= 1 << pos[u]
        return cls(labels, tuple(adj))

    @cached_property
    def _pos(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.labels)}

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def index(self, v: str) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        return bool(self.adj[self.index(u)] >> self.index(v) & 1)

    def degree(self, v: str) -> int:
        return self.adj[self.index(v)].bit_count()

    def neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in iter_bits(self.adj[self.index(v)]))

    def edges(self) -> list[tuple[str, str]]:
        out = []
        for i, row in enumerate(self.adj):
            for j in iter_bits(row):
                if j > i:
                    out.append((self.labels[i], self.labels[j]))
        return out

    def relabel(self, mapping: Mapping[str, str]) -> "Graph":
        """Rename vertices through a bijective mapping; adjacency is unchanged."""
        new = tuple(mapping[v] for v in self.labels)
        return Graph(new, self.adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


# ---------------------------------------------------------------------------
# subgraph algebra
# ---------------------------------------------------------------------------


def full_subgraph(g: Graph, t: Iterable[str]) -> Graph:
    """Induced subgraph on the vertex subset ``t``, labels preserved.

    The result keeps the relative vertex order of ``g``.
    """
    wanted = set(t)
    for v in wanted:
        g.index(v)  # raises on unknown vertices
    mask = sum(1 << i for i, v in enumerate(g.labels) if v in wanted)
    bit = {i: 1 << j for j, i in enumerate(iter_bits(mask))}  # old position -> new bit
    adj = tuple(sum(map(bit.__getitem__, iter_bits(g.adj[i] & mask))) for i in bit)
    return Graph(tuple(g.labels[i] for i in bit), adj)


def vertex_deleted(g: Graph, s: str) -> Graph:
    """The card of ``g`` at ``s``: other rows keep their bits below it, the rest shift down."""
    i = g.index(s)
    low = (1 << i) - 1
    adj = tuple(row & low | row >> 1 & ~low for row in g.adj[:i] + g.adj[i + 1 :])
    return Graph(g.labels[:i] + g.labels[i + 1 :], adj)


def complement(g: Graph) -> Graph:
    n = g.vertex_count
    full = (1 << n) - 1
    adj = tuple((full & ~g.adj[i]) & ~(1 << i) for i in range(n))
    return Graph(g.labels, adj)


def join(g1: Graph, g2: Graph) -> Graph:
    """Graph join: the disjoint union of both graphs plus all cross edges."""
    g, n1 = disjoint_union(g1, g2), g1.vertex_count
    cross1 = ((1 << g2.vertex_count) - 1) << n1
    cross2 = (1 << n1) - 1
    adj = [row | (cross1 if i < n1 else cross2) for i, row in enumerate(g.adj)]
    return Graph(g.labels, tuple(adj))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    overlap = set(g1.labels) & set(g2.labels)
    if overlap:
        raise ValueError(f"label sets overlap: {sorted(overlap)}")
    n1 = g1.vertex_count
    adj = list(g1.adj) + [row << n1 for row in g2.adj]
    return Graph(g1.labels + g2.labels, tuple(adj))


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability; a single vertex counts as connected."""
    n = g.vertex_count
    if n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    return components(g.adj, (1 << n) - 1)[2] == 1


def components(adj: Sequence[int], mask: int) -> tuple[int, int, int]:
    """Vertex, edge and component counts of the subgraph ``adj`` induces on bitset ``mask``."""
    e, c, todo = 0, 0, mask
    while todo:
        c += 1
        stack = todo & -todo
        todo ^= stack
        while stack:
            low = stack & -stack
            stack ^= low
            row = adj[low.bit_length() - 1] & mask
            e += row.bit_count()
            stack |= row & todo
            todo &= ~row
    return mask.bit_count(), e // 2, c


def _dismantled(closed: Sequence[int] | Mapping[int, int], w: int) -> int:
    """Core of the graph induced on bitset ``w``, given ``closed[i] = adj[i] | 1 << i`` for i in
    ``w``: v goes, top bit first, while a neighbour u has ``closed[v] & w & ~closed[u] == 0``;
    only a deleted vertex's neighbours can become dominated, so only they are examined again."""
    todo = w
    while todo:
        v = todo.bit_length() - 1
        todo ^= 1 << v
        cv = closed[v] & w
        nbrs = rest = cv ^ 1 << v
        while rest:
            u = rest.bit_length() - 1
            if not cv & ~closed[u]:
                w ^= 1 << v
                todo |= nbrs
                break
            rest ^= 1 << u
    return w


# ---------------------------------------------------------------------------
# canonical labelling
# ---------------------------------------------------------------------------
#
# Individualisation-refinement search.  Colourings are refined to equitability;
# branching individualises one vertex of the first non-singleton colour class.
# The certificate is the minimum, over all orderings compatible with the search
# tree, of the packed upper-triangle adjacency bits, so equal certificates hold
# exactly for isomorphic graphs (the certificate decodes back to a graph).
#
# Automorphism pruning (McKay-Piperno, Practical graph isomorphism II, 2014):
# a leaf whose certificate equals the best one yields the automorphism
# best_order[i] -> order[i].  Below prefix P, a child is skipped when recorded
# automorphisms fixing P pointwise map it onto an explored sibling; refinement
# is invariant under relabelling, so such an automorphism maps the explored
# subtree onto the skipped one, certificates included, and the minimum stays.
# Backjumping (McKay, Congr. Numer. 30, 1981): that automorphism fixes the
# prefix the two leaves share and maps the best leaf's finished branch below
# it onto the new leaf's, so the search resumes at their deepest common ancestor.
SEARCH_NODE_BUDGET = 10_000  # search nodes one labelling may visit


def _refine(
    nbrs: Sequence[Sequence[int]], colors: list[int]
) -> tuple[list[int], list[list[int]]]:
    """Refine a colouring to equitability; return it with its colour classes.

    Vertices are recoloured by (old colour, neighbour-colour counts) until
    stable.  New colour ids follow the sorted signature order, so the refined
    colouring is a refinement of the input order and is invariant under
    relabelling.  Classes are recoloured one at a time, in colour order: a
    class of one vertex takes the next colour and counts nothing, and a
    larger class splits by its vertices' count vectors, which are indexed
    by colour (a colour -1 counts towards the highest colour).
    """
    cells = _cells_of(colors)
    while True:
        ncol = max(colors) + 1
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            by_counts: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                counts = [0] * ncol
                for u in nbrs[v]:
                    counts[colors[u]] += 1
                by_counts.setdefault(tuple(counts), []).append(v)
            split += [by_counts[s] for s in sorted(by_counts)]
        refined = colors[:]
        for c, cell in enumerate(split):
            for v in cell:
                refined[v] = c
        if refined == colors:
            return colors, cells
        colors, cells = refined, split


def _cells_of(colors: Sequence[int]) -> list[list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return [cells[c] for c in sorted(cells)]


def _is_homogeneous(adj: Sequence[int], cells: list[list[int]]) -> bool:
    """True when every pair of colour classes is joined completely or not at all.

    The partition is already equitable, so one representative per class
    suffices.  When this holds, every class-order-respecting vertex order
    yields the same adjacency matrix and branching can stop.
    """
    masks = [sum(1 << v for v in cell) for cell in cells]
    for a, cell in enumerate(cells):
        row = adj[cell[0]]
        for b, mask in enumerate(masks):
            d = (row & mask).bit_count()
            limit = len(cells[b]) - 1 if a == b else len(cells[b])
            if d != 0 and d != limit:
                return False
    return True


def pack_triangle(adj: Sequence[int]) -> int:
    """The upper-triangle adjacency bits of the graph with rows ``adj``, as one int.

    The bits run column by column, (0,1), (0,2), (1,2), (0,3), ..., the first
    one highest.  Each format pads them to whole bytes of its own width.
    """
    n = len(adj)
    stream = 0  # the layout backwards: bit k holds its k-th bit
    for j in range(n - 1, 0, -1):
        stream = stream << j | adj[j] & ((1 << j) - 1)
    # reverse the binary digits, then restore the zeros that led them
    return int(bin(stream)[:1:-1], 2) << (n * (n - 1) // 2 - stream.bit_length())


def unpack_triangle(n: int, packed: int) -> Graph:
    """The graph on vertices 0..n-1 that :func:`pack_triangle` packs to ``packed``.

    Reversed, its bits hold the row of vertex j below the diagonal from bit j(j-1)/2 on.
    """
    stream = int(bin(packed | 1 << n * (n - 1) // 2)[:2:-1] or "0", 2)  # 1 keeps leading 0s
    adj = [stream >> j * (j - 1) // 2 & (1 << j) - 1 for j in range(n)]
    for j in range(n):  # row j gains its bits above the diagonal only after this
        for i in iter_bits(adj[j]):
            adj[i] |= 1 << j
    return Graph(_range_labels(n), tuple(adj))


def _certificate(nbrs: Sequence[Sequence[int]], order: Sequence[int]) -> bytes:
    """The adjacency of ``order``, position i holding ``order[i]``, packed 8 bits to a byte."""
    n = len(order)
    bit = [0] * n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    rows = []
    for v in order:
        row = 0
        for u in nbrs[v]:
            row |= bit[u]
        rows.append(row)
    nbits = n * (n - 1) // 2
    return (pack_triangle(rows) << -nbits % 8).to_bytes((nbits + 7) // 8, "big")


def _orbit_roots(n: int, perms: Iterable[Sequence[int]]) -> list[int]:
    """Least point of each point's orbit under the group ``perms`` generate (union-find)."""
    root = list(range(n))
    for perm in perms:
        for x, y in enumerate(perm):
            while root[x] != x:
                x = root[x]
            while root[y] != y:
                y = root[y]
            root[max(x, y)] = min(x, y)
    for x in range(n):  # links point to lesser points, so root[root[x]] is final here
        root[x] = root[root[x]]
    return root


def _search(g: Graph) -> tuple[bytes, list[list[int]]]:
    """Least certificate body of ``g``, and the automorphisms recorded on the way.

    A leaf equal to the best one records its automorphism and ends the search
    below the two leaves' deepest common ancestor, which goes on to its next child.
    """
    n = g.vertex_count
    adj = g.adj
    nbrs = [list(iter_bits(row)) for row in adj]
    best: bytes | None = None
    best_order: list[int] = []
    best_prefix: tuple[int, ...] = ()
    autos: list[list[int]] = []
    nodes = 0

    def visit(colors: list[int], prefix: tuple[int, ...]) -> int:
        """Search below ``prefix``; return the depth to resume at, below its own on a backjump."""
        nonlocal best, best_order, best_prefix, nodes
        nodes += 1
        if nodes > SEARCH_NODE_BUDGET:
            raise ValueError(f"canonical labelling of a {n}-vertex graph "
                             f"exceeded {SEARCH_NODE_BUDGET} search nodes")
        colors, cells = _refine(nbrs, colors)
        if len(cells) == n or _is_homogeneous(adj, cells):
            order = [v for cell in cells for v in cell]
            cert = _certificate(nbrs, order)
            if best is None or cert < best:
                best, best_order, best_prefix = cert, order, prefix
            elif cert == best:
                autos.append([w for _, w in sorted(zip(best_order, order))])
                return next(i for i, (u, w) in enumerate(zip(prefix, best_prefix)) if u != w)
            return len(prefix)
        target = next(cell for cell in cells if len(cell) > 1)
        explored, known, root = [], 0, range(n)
        for v in target:
            if explored and len(autos) != known:
                known = len(autos)
                root = _orbit_roots(n, (a for a in autos if all(a[p] == p for p in prefix)))
            if known and any(root[v] == root[u] for u in explored):
                continue
            explored.append(v)
            branched = [c * 2 for c in colors]
            branched[v] -= 1
            if (depth := visit(branched, prefix + (v,))) < len(prefix):
                return depth
        return len(prefix)

    if n:
        visit([0] * n, ())
    return best or b"", autos


def canonical_form(g: Graph) -> bytes:
    """Canonical certificate of the isomorphism class of ``g``.

    Exact: two graphs receive equal certificates if and only if they are
    isomorphic.  The certificate embeds the vertex count, so graphs of
    different orders never collide.  Raises ``ValueError`` past ``SEARCH_NODE_BUDGET`` nodes.
    """
    return b"%d:" % g.vertex_count + _search(g)[0]


def vertex_orbits(g: Graph) -> list[tuple[str, ...]]:
    """Vertex classes, by first vertex, under the automorphisms the labelling search finds.

    Each class lies in one orbit of Aut(g), so its cards are isomorphic.  It may be finer:
    the search backjumps after each automorphism, so it records only some of them.
    """
    roots = _orbit_roots(g.vertex_count, _search(g)[1])
    return [tuple(v for v, x in zip(g.labels, roots) if x == r) for r in sorted(set(roots))]


def certificate_bits(cert: bytes) -> tuple[int, int]:
    """The order of the graph ``cert`` certifies and its layout bits, less the padding."""
    head, sep, packed = cert.partition(b":")
    n = int(head) if head.isdigit() else -1
    bits, padding = divmod(int.from_bytes(packed, "big"), 1 << -(n * (n - 1) // 2) % 8)
    if not sep or n < 0 or len(packed) != (n * (n - 1) // 2 + 7) // 8 or padding:
        raise ValueError("malformed certificate")
    return n, bits


def graph_from_canonical_form(cert: bytes) -> Graph:
    """Decode a certificate back into its canonically labelled representative."""
    return unpack_triangle(*certificate_bits(cert))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return canonical_form(g1) == canonical_form(g2)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def _range_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def cycle(n: int) -> Graph:
    """The cycle C_n, n >= 3.

    >>> cycle(3).edge_count
    3
    """
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    labels = _range_labels(n)
    return Graph.from_edges(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


def path(n: int) -> Graph:
    """The path P_n on n >= 1 vertices."""
    if n < 1:
        raise ValueError("paths need at least 1 vertex")
    labels = _range_labels(n)
    return Graph.from_edges(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def complete(n: int) -> Graph:
    """The complete graph K_n, n >= 1."""
    if n < 1:
        raise ValueError("complete graphs need at least 1 vertex")
    return complete_multipartite([1] * n)


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph with the given part sizes, parts consecutive.

    >>> complete_multipartite([2, 2, 2]).edge_count
    12
    """
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    n = sum(sizes)
    labels = _range_labels(n)
    part = []
    for p, s in enumerate(sizes):
        part += [p] * s
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if part[i] != part[j]
    ]
    return Graph.from_edges(labels, edges)


def cross_polytope(k: int) -> Graph:
    """1-skeleton of the k-dimensional cross polytope: K_{2,...,2} with k parts.

    k = 2 is the 4-cycle, k = 3 the octahedron.
    """
    if k < 1:
        raise ValueError("cross polytopes need k >= 1")
    return complete_multipartite([2] * k)


def torus_grid(p: int, q: int) -> Graph:
    """Triangulated p-by-q torus grid, p, q >= 4.

    Vertex (i, j) is adjacent to (i±1, j), (i, j±1), (i+1, j+1) and
    (i-1, j-1), all mod (p, q).  Every vertex has degree 6 and the clique
    complex is the standard flag triangulation of the torus.
    """
    if p < 4 or q < 4:
        raise ValueError("torus grids need p, q >= 4")
    labels = tuple(f"{i},{j}" for i in range(p) for j in range(q))
    edges = []
    for i in range(p):
        for j in range(q):
            a = f"{i},{j}"
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                edges.append((a, f"{(i + di) % p},{(j + dj) % q}"))
    return Graph.from_edges(labels, edges)


def icosahedron() -> Graph:
    """1-skeleton of the icosahedron: 12 vertices, 30 edges, 20 triangles.

    Vertex 0 is one apex, 1..5 and 6..10 the two rings, 11 the other apex.
    """
    edges = []
    for i in range(5):
        u, un = str(1 + i), str(1 + (i + 1) % 5)
        l, ln = str(6 + i), str(6 + (i + 1) % 5)
        edges += [("0", u), (u, un), ("11", l), (l, ln), (u, l), (u, ln)]
    return Graph.from_edges(_range_labels(12), edges)


FAMILIES = {
    "cycle": (cycle, 1),
    "path": (path, 1),
    "complete": (complete, 1),
    "complete_multipartite": (complete_multipartite, None),
    "cross_polytope": (cross_polytope, 1),
    "torus_grid": (torus_grid, 2),
    "icosahedron": (icosahedron, 0),
}


def generate(family: str, params: Sequence[int] = ()) -> Graph:
    """Build a named family member; deterministic labelling.

    ``family`` is one of ``FAMILIES``; ``params`` are its integer parameters
    (variadic for ``complete_multipartite``).
    """
    if family not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; choose from {', '.join(sorted(FAMILIES))}"
        )
    fn, arity = FAMILIES[family]
    params = list(params)
    if arity is None:
        return fn(params)
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)

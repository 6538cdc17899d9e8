"""Ground-truth helpers for the test suite.

Everything here is deliberately naive: permutation sweeps, rational-arithmetic
ranks, full subset enumeration. The library has to agree with these on inputs
small enough for the naive version to finish.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import strategies as st

from flagrecon import (
    INTEGERS,
    AbelianGroup,
    BoundaryPatternError,
    Graph,
    GradedGroups,
    IntegerMatrix,
    NerveSystem,
    SimplicialComplex,
    complement,
    complete_multipartite,
    cross_polytope,
    cycle,
    disjoint_union,
    full_subcomplex,
    reduced_cohomology,
    icosahedron,
    join,
    path,
    boundary_matrix,
    build_complex,
    canonical_form,
    clique_complex,
    deck,
    graph_from_canonical_form,
    is_pure,
    links,
    maximal_simplices,
    reduced_homology,
    smith_normal_form,
    sphere_homology,
    torus_grid,
)
from flagrecon import complete as complete_graph
from flagrecon.coxeter import Condition3Result, Condition3Witness, spherical_subsets
from flagrecon.graphs import _cells_of, _is_homogeneous, iter_bits


def graph_on(labels: list[str], mask: int) -> Graph:
    """Graph from an upper-triangle bitmask, lowest bit = (0,1), row-major."""
    edges = []
    k = 0
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if mask >> k & 1:
                edges.append((labels[i], labels[j]))
            k += 1
    return Graph.from_edges(labels, edges)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_on([f"v{i}" for i in range(n)], mask)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    labels = [f"v{i}" for i in range(n)]
    edges = [
        (labels[i], labels[j])
        for i, j in combinations(range(n), 2)
        if rng.random() < p
    ]
    return Graph.from_edges(labels, edges)


def reordered(g: Graph, labels: list[str]) -> Graph:
    """``g`` with its vertices stored in the order ``labels``.

    Unlike ``Graph.relabel``, this permutes the adjacency indices, which is
    what the labelling search sees.
    """
    return Graph.from_edges(labels, g.edges())


def suffixed(g: Graph, tag: str) -> Graph:
    return g.relabel({v: v + tag for v in g.labels})


def symmetric_family() -> list[Graph]:
    """Graphs with large automorphism groups, where an unpruned search is slowest."""
    c5 = cycle(5)
    return (
        [cycle(n) for n in (5, 6, 9)]
        + [cross_polytope(k) for k in range(2, 6)]
        + [torus_grid(p, q) for p in range(4, 7) for q in range(4, 7)]
        + [icosahedron(), complete_multipartite([1, 2, 3]), complete_multipartite([3, 3, 3])]
        + [join(c5, suffixed(c5, "'"))]
    )


@st.composite
def symmetric_graphs(draw):
    """A symmetric family member, its complement, or a disjoint union of two
    symmetric graphs, with the vertices stored in a drawn order.

    A union's automorphism group is the product of its parts' groups, and
    so is the unpruned oracle's cost: unions draw from the members of at
    most 12 vertices, apart from cross_polytope(5), and from small pieces.
    """
    family = symmetric_family()
    op = draw(st.sampled_from(["plain", "complement", "union"]))
    if op == "union":
        parts = [h for h in family if h.vertex_count <= 12 and h != cross_polytope(5)]
        small = [cycle(3), cycle(4), cycle(6), cross_polytope(2), path(3)]
        g = disjoint_union(draw(st.sampled_from(parts)), suffixed(draw(st.sampled_from(small)), "+"))
    else:
        g = draw(st.sampled_from(family))
        if op == "complement":
            g = complement(g)
    return reordered(g, draw(st.permutations(g.labels)))


def hub(label: str = "h") -> Graph:
    return Graph.from_edges([label], [])


def small_corpus() -> list[tuple[str, Graph]]:
    """The named graphs most tests cycle through."""
    return [
        ("C4", cycle(4)),
        ("C5", cycle(5)),
        ("C6", cycle(6)),
        ("C7", cycle(7)),
        ("P4", path(4)),
        ("K4", complete_graph(4)),
        ("K22", cross_polytope(2)),
        ("K222", cross_polytope(3)),
        ("wheel", join(cycle(4), hub())),
        ("torus44", torus_grid(4, 4)),
        ("icosa", icosahedron()),
    ]


def iso_bijection(g1: Graph, g2: Graph) -> dict[str, str] | None:
    """Exhaustive isomorphism search over all vertex bijections.

    Returns one witnessing bijection or None. Factorial cost, so callers
    stay at 8 vertices or fewer.
    """
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return None
    assert n <= 8, "permutation oracle is factorial; keep inputs small"
    pairs = list(combinations(range(n), 2))
    for perm in permutations(range(n)):
        if all(
            g1.has_edge(g1.labels[i], g1.labels[j])
            == g2.has_edge(g2.labels[perm[i]], g2.labels[perm[j]])
            for i, j in pairs
        ):
            return {g1.labels[i]: g2.labels[perm[i]] for i in range(n)}
    return None


def dense_refine(n: int, adj, colors: list[int]) -> list[int]:
    """Refine a colouring to equitability, recounting every vertex every round.

    The library's former refinement: each round gives every vertex the
    signature (old colour, neighbour counts per colour), with a vector as
    long as the number of colours, and renumbers by sorted signature until
    the colouring is stable.  A colour -1 counts towards the highest colour,
    as ``counts[-1]`` does.
    """
    while True:
        ncol = max(colors) + 1
        sigs: list[tuple[int, tuple[int, ...]]] = []
        for v in range(n):
            counts = [0] * ncol
            rest = adj[v]
            while rest:
                low = rest & -rest
                counts[colors[low.bit_length() - 1]] += 1
                rest ^= low
            sigs.append((colors[v], tuple(counts)))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refined = [rank[s] for s in sigs]
        if refined == colors:
            return colors
        colors = refined


def packed_certificate(n: int, adj, order) -> bytes:
    """The upper-triangle adjacency bits of ``order``, column by column, bit by bit.

    The library's former packing, which reads every vertex pair.
    """
    acc = 0
    nbits = 0
    out = bytearray()
    for j in range(1, n):
        row = adj[order[j]]
        for i in range(j):
            acc = acc << 1 | (row >> order[i] & 1)
            nbits += 1
            if nbits == 8:
                out.append(acc)
                acc = 0
                nbits = 0
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


def unpruned_canonical_form(g: Graph) -> bytes:
    """Canonical certificate by the full individualisation-refinement search.

    The search the library ran before automorphism pruning: it visits every
    branch, so it sees at least |Aut(g)| leaves, and it refines with
    :func:`dense_refine` and packs with :func:`packed_certificate`.  The
    pruned search must return the same bytes.
    """
    n = g.vertex_count
    if n == 0:
        return b"0:"
    adj = g.adj
    best: bytes | None = None

    def visit(colors: list[int]) -> None:
        nonlocal best
        colors = dense_refine(n, adj, colors)
        cells = _cells_of(colors)
        if len(cells) == n or _is_homogeneous(adj, cells):
            order = [v for cell in cells for v in cell]
            cert = packed_certificate(n, adj, order)
            if best is None or cert < best:
                best = cert
            return
        target = next(cell for cell in cells if len(cell) > 1)
        for v in target:
            branched = [c * 2 for c in colors]
            branched[v] -= 1
            visit(branched)

    visit([0] * n)
    assert best is not None
    return b"%d:" % n + best


def rational_rank(rows: list[list[int]]) -> int:
    """Matrix rank by Gauss-Jordan elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    cols = len(m[0]) if m else 0
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def determinant(rows: list[list[int]]) -> Fraction:
    """Exact determinant by fraction-pivot elimination."""
    n = len(rows)
    assert all(len(row) == n for row in rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def is_unimodular(rows: list[list[int]]) -> bool:
    return abs(determinant(rows)) == 1


def brute_maximal_cliques(g: Graph) -> list[frozenset[str]]:
    """Maximal cliques by sweeping the vertex subsets of each size in turn.

    Cliques are closed downward, so the sweep stops at the first size that
    has none.
    """
    cliques = []
    for k in range(1, g.vertex_count + 1):
        found = [
            frozenset(vs)
            for vs in combinations(g.labels, k)
            if all(g.has_edge(u, v) for u, v in combinations(vs, 2))
        ]
        if not found:
            break
        cliques += found
    return [c for c in cliques if not any(c < d for d in cliques)]


def subdivided(g: Graph, steps: int, seed: int) -> Graph:
    """``g`` after ``steps`` stellar edge subdivisions at seeded edges.

    The new vertex joins both ends of the edge and their common neighbours,
    and the edge goes.  On a flag complex that keeps it flag and keeps its
    PL type (Lutz-Nevo 2016).
    """
    rng = random.Random(seed)
    adj = {v: set(g.neighbors(v)) for v in g.labels}
    for k in range(steps):
        u, v = rng.choice(sorted((a, b) for a in adj for b in adj[a] if a < b))
        w = f"s{k}"
        adj[w] = (adj[u] & adj[v]) | {u, v}
        adj[u].discard(v)
        adj[v].discard(u)
        for x in adj[w]:
            adj[x].add(w)
    return Graph.from_edges(list(adj), [(a, b) for a in adj for b in adj[a] if a < b])


def links_boundary_of(L: SimplicialComplex) -> frozenset[str]:
    """``boundary_of`` over built vertex links, in every dimension.

    The library's former route: ``links(L, 0)`` builds every vertex link,
    and ``reduced_homology`` computes each one.
    """
    n = L.dimension
    if n == -1:
        raise ValueError("the empty complex has no boundary")
    if not is_pure(L):
        raise ValueError(f"complex is not pure of dimension {n}")
    interior = sphere_homology(n - 1)
    out = []
    for v, h in zip(L.labels, map(reduced_homology, links(L, 0))):
        if h == interior:
            continue
        if h.is_trivial_everywhere:
            out.append(v)
        else:
            raise BoundaryPatternError(v, h.shifted(1), n)
    return frozenset(out)


def reclosed_full_subcomplex(L: SimplicialComplex, t) -> SimplicialComplex:
    """The full subcomplex by re-closing and re-sorting the kept faces.

    The library's former route: the kept faces go back through
    ``build_complex``, which closes them downward and sorts every level,
    so the result does not depend on L's storage order.
    """
    wanted = set(t)
    for v in wanted:
        if v not in L._pos:
            raise ValueError(f"unknown vertex {v!r}")
    sub_labels = tuple(v for v in L.labels if v in wanted)
    faces = [
        s for level in L.simplices[1:] for s in level if wanted.issuperset(s)
    ]
    return build_complex(sub_labels, faces)


def reclosed_link(L: SimplicialComplex, simplex) -> SimplicialComplex:
    """The link by re-closing and re-sorting the faces that contain the simplex."""
    s = L.simplex(simplex)
    if s not in L._face_set:
        raise ValueError(f"{s} is not a simplex of the complex")
    sset = set(s)
    k = len(s)
    vertices = []
    faces = []
    for level in L.simplices:
        for face in level:
            if len(face) <= k:
                continue
            if sset.issubset(face):
                rest = tuple(v for v in face if v not in sset)
                if len(rest) == 1:
                    vertices.append(rest[0])
                else:
                    faces.append(rest)
    return build_complex(vertices, faces)


# minimal closed projective plane: 6 vertices, 15 edges, 10 triangles,
# every edge shared by exactly two triangles
RP2_FACES = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]


def projective_plane() -> SimplicialComplex:
    return build_complex(
        [str(i) for i in range(1, 7)], [[str(v) for v in t] for t in RP2_FACES]
    )


def barycentric_subdivision(L: SimplicialComplex) -> Graph:
    """The 1-skeleton of L's barycentric subdivision: one vertex per simplex,
    labelled by its vertices joined, and an edge between each face and coface.

    Its clique complex is the subdivision itself, so any complex, RP^2
    included, becomes a flag complex of the same homeomorphism type.
    """
    cells = [s for level in L.simplices for s in level]
    edges = [("".join(a), "".join(b)) for b in cells for a in cells if set(a) < set(b)]
    return Graph.from_edges(["".join(s) for s in cells], edges)


# the 8-vertex dunce hat: contractible, but no face of it is free
DUNCE_HAT_FACES = "124 127 128 134 135 136 156 178 235 237 238 245 348 367 456 468 678".split()


def dunce_hat() -> SimplicialComplex:
    return build_complex([str(i) for i in range(1, 9)], [list(t) for t in DUNCE_HAT_FACES])


def suspension(L: SimplicialComplex) -> SimplicialComplex:
    """Two cone points over L; each reduced homology group moves up one degree."""
    poles = ("north", "south")
    return build_complex(L.labels + poles, [s + (p,) for s in maximal_simplices(L) for p in poles])


@st.composite
def face_list_complexes(draw, max_face: int = 5):
    """Complexes closed from a few drawn faces of at most ``max_face`` vertices."""
    labels = [f"u{i}" for i in range(draw(st.integers(1, 8)))]
    face = st.sets(st.sampled_from(labels), min_size=1, max_size=max_face)
    faces = draw(st.lists(face, max_size=8))
    return build_complex(draw(st.permutations(labels)), faces)


def unpaired_reduced_homology(L: SimplicialComplex) -> GradedGroups:
    """Reduced homology from the Smith normal form of every whole boundary matrix.

    No cell is paired off first, unlike the library.
    """
    if L.dimension == -1:
        return GradedGroups({-1: INTEGERS})
    degrees = range(-1, L.dimension + 1)
    f = [1] + [len(level) for level in L.simplices]  # f[k + 1] cells in degree k
    snf = [smith_normal_form(boundary_matrix(L, k, reduced=(k == 0))) for k in degrees[1:]]
    rank = [0] + [s.rank for s in snf] + [0]  # rank[k + 1]: the boundary out of degree k
    torsion = [()] + [tuple(d for d in s.invariant_factors if d > 1) for s in snf] + [()]
    return GradedGroups(
        {k: AbelianGroup(f[k + 1] - rank[k + 1] - rank[k + 2], torsion[k + 2]) for k in degrees}
    )


def corpus_complexes() -> list[tuple[str, SimplicialComplex]]:
    """The clique complexes of the small corpus, and RP^2, which is not flag."""
    cases = [(name, clique_complex(g)) for name, g in small_corpus()]
    cases.append(("RP2", projective_plane()))
    return cases


def naive_boundary_rows(L: SimplicialComplex, k: int) -> list[list[int]]:
    """Reduced k-th boundary matrix, rebuilt from the face lists.

    Rows follow (k-1)-faces (a single empty-face row when k = 0), columns
    follow k-faces; the sign of a face is the parity of the dropped position.
    """
    dim = L.dimension
    if k < 0 or k > dim:
        return []
    cols = L.simplices[k]
    if k == 0:
        return [[1] * len(cols)]
    rows_index = {face: r for r, face in enumerate(L.simplices[k - 1])}
    rows = [[0] * len(cols) for _ in rows_index]
    for c, simplex in enumerate(cols):
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1 :]
            rows[rows_index[face]][c] = -1 if i % 2 else 1
    return rows


def rational_betti(L: SimplicialComplex) -> dict[int, int]:
    """Reduced Betti numbers over Q; torsion is invisible here by design."""
    if L.vertex_count == 0:
        return {-1: 1}
    dim = L.dimension
    ranks = {}
    for k in range(dim + 2):
        rows = naive_boundary_rows(L, k)
        ranks[k] = rational_rank(rows) if rows else 0
    betti = {-1: 1 - ranks[0]}
    for k in range(dim + 1):
        betti[k] = len(L.simplices[k]) - ranks[k] - ranks[k + 1]
    return {k: b for k, b in betti.items() if b}


def matrix_from_rows(rows, cols: int | None = None) -> IntegerMatrix:
    """An ``IntegerMatrix`` from nested rows; ``cols`` is needed only with no row."""
    data = tuple(tuple(int(x) for x in r) for r in rows)
    if cols is None:
        if not data:
            raise ValueError("column count required for empty matrices")
        cols = len(data[0])
    return IntegerMatrix(len(data), cols, data)


def smith_transforms(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Unimodular U and V with U m V diagonal, the diagonal a divisibility chain.

    A dense elimination of its own, apart from the library's sparse kernel:
    the pivot is the smallest nonzero magnitude in the whole trailing block,
    every row operation is recorded in U and every column operation in V.
    """
    nrow, ncol = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(nrow)] for i in range(nrow)]
    v = [[int(i == j) for j in range(ncol)] for i in range(ncol)]

    def add_row(dst: int, src: int, factor: int) -> None:
        for rows in (a, u):
            rows[dst] = [x + factor * y for x, y in zip(rows[dst], rows[src])]

    def add_col(dst: int, src: int, factor: int) -> None:
        for rows in (a, v):
            for row in rows:
                row[dst] += factor * row[src]

    for s in range(min(nrow, ncol)):
        while True:
            pv, pi, pj = min(
                ((abs(a[i][j]), i, j) for i in range(s, nrow) for j in range(s, ncol) if a[i][j]),
                default=(0, -1, -1),
            )
            if pv == 0:
                break
            for rows in (a, u):
                rows[pi], rows[s] = rows[s], rows[pi]
            for rows in (a, v):
                for row in rows:
                    row[pj], row[s] = row[s], row[pj]
            if a[s][s] < 0:
                for rows in (a, u):
                    rows[s] = [-x for x in rows[s]]
            dirty = False
            for i in range(s + 1, nrow):
                add_row(i, s, -(a[i][s] // a[s][s]))
                dirty = dirty or a[i][s] != 0
            for j in range(s + 1, ncol):
                add_col(j, s, -(a[s][j] // a[s][s]))
                dirty = dirty or a[s][j] != 0
            if dirty:
                continue
            d = a[s][s]
            offender = next(
                (i for i in range(s + 1, nrow) if any(x % d for x in a[i][s + 1 :])), -1
            )
            if offender < 0:
                break
            add_row(s, offender, 1)
    return (
        IntegerMatrix(nrow, nrow, tuple(map(tuple, u))),
        IntegerMatrix(ncol, ncol, tuple(map(tuple, v))),
    )


def identity_matrix(n: int) -> IntegerMatrix:
    return IntegerMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def transpose(m: IntegerMatrix) -> IntegerMatrix:
    return IntegerMatrix(m.cols, m.rows, tuple(zip(*m.entries)) if m.entries else tuple(() for _ in range(m.cols)))


def matrix_multiply(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    bt = list(zip(*b.entries)) if b.entries else [()] * b.cols
    data = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.entries
    )
    return IntegerMatrix(a.rows, b.cols, data)


def reduced_cohomology_via_cochains(L: SimplicialComplex) -> GradedGroups:
    """Reduced cohomology recomputed from transposed boundary operators.

    Independent of the library's homology route, which pairs cells off
    before any Smith normal form: here every coboundary goes through
    ``smith_normal_form`` whole.  The cochain in degree k is dual to
    the chain in degree k, with the dual augmentation entering at degree -1.
    """
    dim = L.dimension
    if dim == -1:
        return GradedGroups({-1: INTEGERS})
    f = {-1: 1}
    for k, level in enumerate(L.simplices):
        f[k] = len(level)
    # delta[k] maps k-cochains to (k+1)-cochains
    delta = {
        k: smith_normal_form(transpose(boundary_matrix(L, k + 1, reduced=(k + 1 == 0))))
        for k in range(-1, dim + 1)
    }
    groups: dict[int, AbelianGroup] = {}
    for k in range(-1, dim + 1):
        below = delta.get(k - 1)
        rank = f[k] - delta[k].rank - (below.rank if below else 0)
        torsion = tuple(d for d in below.invariant_factors if d > 1) if below else ()
        groups[k] = AbelianGroup(rank, torsion)
    return GradedGroups(groups)


def join_split(g: Graph) -> tuple[list[str], list[str]] | None:
    """A nontrivial bipartition with every cross pair adjacent, or None."""
    n = g.vertex_count
    assert 1 <= n <= 14
    for mask in range(1, (1 << n) - 1):
        a = [i for i in range(n) if mask >> i & 1]
        b = [i for i in range(n) if not mask >> i & 1]
        if all(g.has_edge(g.labels[i], g.labels[j]) for i in a for j in b):
            return [g.labels[i] for i in a], [g.labels[i] for i in b]
    return None


def adjacency_dismantled(adj: tuple[int, ...], w: int) -> int:
    """Core of the graph induced on bitset ``w``: v goes while a neighbour u
    has N[v] & w inside N[u]; only a deleted vertex's neighbours can become
    dominated, so only they are examined again.

    The library's former dismantling, on open adjacency rows, closing each
    neighbourhood afresh for every neighbour it tests.
    """
    todo = w
    while todo:
        v = todo.bit_length() - 1
        todo ^= 1 << v
        nbrs = adj[v] & w
        if any(not (nbrs | 1 << v) & ~(adj[u] | 1 << u) for u in iter_bits(nbrs)):
            w ^= 1 << v
            todo |= nbrs
    return w


def undismantled_complement_cohomologies(ns: NerveSystem):
    """Each nonempty spherical T, in (size, storage) order, with the reduced
    cohomology of the full subcomplex on the remaining vertices.

    The library's former sweep: every remainder is built and computed,
    with no strong collapse first.
    """
    for t in spherical_subsets(ns):
        tset = set(t)
        rest = [v for v in ns.graph.labels if v not in tset]
        yield t, reduced_cohomology(full_subcomplex(ns.nerve, rest))


def undismantled_condition3_vanishing(ns: NerveSystem) -> Condition3Result:
    """``condition3_vanishing`` over the undismantled sweep."""
    checked = 0
    for checked, (t, coh) in enumerate(undismantled_complement_cohomologies(ns), 1):
        bad = coh.nontrivial()
        if bad:
            degree = min(bad)
            return Condition3Result(False, Condition3Witness(t, degree, bad[degree]), checked)
    return Condition3Result(True, None, checked)


def brute_condition3_failures(ns: NerveSystem) -> list[tuple[tuple[str, ...], int]]:
    """(subset, degree) pairs where deleting a clique leaves cohomology.

    Cliques are found by subset sweep and the cohomology goes through the
    cochain-complex route, so neither step shares code with the library's
    spherical-subset walk.
    """
    g = ns.graph
    n = g.vertex_count
    assert n <= 12
    failures = []
    for mask in range(1, 1 << n):
        vs = [g.labels[i] for i in range(n) if mask >> i & 1]
        if not all(g.has_edge(u, v) for u, v in combinations(vs, 2)):
            continue
        rest = [v for v in g.labels if v not in vs]
        sub = full_subcomplex(ns.nerve, rest)
        groups = reduced_cohomology_via_cochains(sub)
        for d in sorted(groups.nontrivial()):
            failures.append((tuple(vs), d))
    return failures


def unpruned_enumerate_graphs(n: int) -> list[Graph]:
    """``enumerate_graphs`` without the minimum-degree filter.

    Every one of the 2^(k-1) ways to attach vertex k-1 to each class of
    order k-1 is labelled, so no argument about which vertex to grow at is
    needed for completeness.
    """
    reps: dict[bytes, Graph] = {}
    single = Graph(("0",), (0,))
    reps[canonical_form(single)] = single
    for k in range(2, n + 1):
        grown: dict[bytes, Graph] = {}
        for g in reps.values():
            labels = g.labels + (str(k - 1),)
            for mask in range(1 << (k - 1)):
                adj = list(g.adj) + [mask]
                for i in range(k - 1):
                    if mask >> i & 1:
                        adj[i] |= 1 << (k - 1)
                cert = canonical_form(Graph(labels, tuple(adj)))
                if cert not in grown:
                    grown[cert] = graph_from_canonical_form(cert)
        reps = grown
    return [reps[c] for c in sorted(reps)]


def all_decks_oracle(graphs: list[Graph]) -> list[list[Graph]]:
    """``brute_force_oracle`` without the invariant filter: every graph gets a deck.

    Groups of size >= 2 by identical deck, in input order.
    """
    by_deck: dict[tuple, list[Graph]] = {}
    for g in graphs:
        by_deck.setdefault(deck(g).key(), []).append(g)
    return [group for group in by_deck.values() if len(group) > 1]

"""Abstract simplicial complexes, clique (flag) complexes, links and subcomplexes.

A complex is its levels: simplices are stored as label tuples sorted by
the complex's own vertex order, grouped by dimension, and ``labels`` reads
level 0.  The complex with no vertices is legal and has dimension -1.  Flag complexes,
with their rows and common neighbourhoods, come only from :func:`clique_complex`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import itemgetter
from typing import ClassVar, Iterable, Sequence

from .graphs import Graph, full_subgraph, iter_bits

__all__ = [
    "MAX_FACES",
    "Simplex",
    "SimplicialComplex",
    "build_complex",
    "clique_complex",
    "full_subcomplex",
    "link",
    "links",
    "one_skeleton",
    "is_flag",
    "f_vector",
    "euler_characteristic",
]

Simplex = tuple[str, ...]
Levels = tuple[tuple[Simplex, ...], ...]

MAX_FACES = 1 << 16  # faces one built complex may have: complete(16) has 65 535


def _check_budget(faces: int) -> None:
    if faces > MAX_FACES:
        raise ValueError(f"complex of {faces} faces or more is over MAX_FACES = {MAX_FACES}")


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable simplicial complex, stored as its levels.

    ``simplices[k]`` holds the k-simplices, each sorted by vertex position
    and the level sorted lexicographically by position; ``labels`` reads
    level 0, so the vertex order is the order of the 0-simplices.  Downward
    closure is the builder's responsibility; the constructor only guards
    the cheap invariants.  :func:`build_complex` closes and sorts outside
    face lists; :func:`clique_complex`, :func:`links` and
    :func:`full_subcomplex` make closed, storage-ordered levels directly.
    ``rows`` and ``neighbourhoods`` are None except on a complex that
    :func:`clique_complex` made, which fills them in; they are no fields, so
    take no part in construction, equality, hashing or repr.
    """

    simplices: Levels
    # the bitset of the neighbours of labels[i] at i, and each simplex's common
    # neighbours N(sigma) as a bitset, by level in storage order (0 for a maximal simplex)
    rows: ClassVar[tuple[int, ...] | None] = None
    neighbourhoods: ClassVar[list[list[int]] | None] = None

    def __post_init__(self) -> None:
        for k, level in enumerate(self.simplices):
            if not level:
                raise ValueError("trailing empty simplex levels are not stored")
            if set(map(len, level)) != {k + 1}:
                raise ValueError(f"level {k} contains a simplex of the wrong size")

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(v for (v,) in self.faces(0))

    @cached_property
    def _pos(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.labels)}

    @cached_property
    def _face_set(self) -> frozenset[Simplex]:
        return frozenset(s for level in self.simplices for s in level)

    @property
    def dimension(self) -> int:
        return len(self.simplices) - 1

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def faces(self, k: int) -> tuple[Simplex, ...]:
        if 0 <= k < len(self.simplices):
            return self.simplices[k]
        return ()

    def simplex(self, vertices: Iterable[str]) -> Simplex:
        """Normalise ``vertices`` to this complex's storage order."""
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("repeated vertex in simplex")
        for v in vs:
            if v not in self._pos:
                raise ValueError(f"unknown vertex {v!r}")
        return tuple(sorted(vs, key=self._pos.__getitem__))

    def has_simplex(self, vertices: Iterable[str]) -> bool:
        try:
            return self.simplex(vertices) in self._face_set
        except ValueError:
            return False

    def __contains__(self, simplex: Simplex) -> bool:
        return simplex in self._face_set

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimplicialComplex(dim={self.dimension}, f={f_vector(self)})"


def build_complex(labels: Iterable[str], faces: Iterable[Iterable[str]]) -> SimplicialComplex:
    """Close ``faces`` downward over ``labels`` and normalise storage.

    Every label becomes a 0-simplex whether or not a face mentions it.
    Faces may list vertices in any order but must not repeat one.  Past
    ``MAX_FACES`` faces it raises, before closing a face too big on its own.
    """
    labels = tuple(labels)
    pos = {v: i for i, v in enumerate(labels)}
    if len(pos) != len(labels):
        raise ValueError("duplicate vertex label")
    by_dim: list[set[tuple[int, ...]]] = [set((i,) for i in range(len(labels)))]
    for face in faces:
        face = list(face)
        idx = sorted(pos[v] if v in pos else -1 for v in face)
        if idx and idx[0] < 0:
            missing = next(v for v in face if v not in pos)
            raise ValueError(f"face references unknown vertex {missing!r}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"face repeats a vertex: {face}")
        _check_budget((1 << len(idx)) - 1)
        while len(by_dim) < len(idx):
            by_dim.append(set())
        for k in range(2, len(idx) + 1):
            by_dim[k - 1].update(itertools.combinations(idx, k))
        _check_budget(sum(map(len, by_dim)))
    return SimplicialComplex(tuple(
        tuple(tuple(labels[i] for i in s) for s in sorted(level)) for level in by_dim if level
    ))


# ---------------------------------------------------------------------------
# clique complexes
# ---------------------------------------------------------------------------


def clique_complex(g: Graph) -> SimplicialComplex:
    """The flag complex of ``g``, every clique a simplex, with its rows and neighbourhoods.

    Level k + 1 extends each k-clique by each common neighbour v above its
    last vertex, so each level comes out in lexicographic order of positions,
    the storage order.  A level that takes the face count past ``MAX_FACES``
    raises before it is built.
    """
    labels, adj = g.labels, g.adj
    frontier = [((v,), i, adj[i]) for i, v in enumerate(labels)]  # clique, last position, N
    faces = len(frontier)
    levels, common = [], []
    while frontier:
        levels.append(tuple([s for s, _, _ in frontier]))
        common.append([c for _, _, c in frontier])
        faces += sum([(c >> i + 1).bit_count() for _, i, c in frontier])
        _check_budget(faces)
        frontier = [
            (s + (labels[v],), v, c & adj[v])
            for s, i, c in frontier
            for v in iter_bits(c >> i + 1 << i + 1)
        ]
    L = SimplicialComplex(tuple(levels))
    L.__dict__.update(rows=adj, neighbourhoods=common)  # rows, N(sigma) known here
    return L


# ---------------------------------------------------------------------------
# subcomplexes and links
# ---------------------------------------------------------------------------


def full_subcomplex(L: SimplicialComplex, t: Iterable[str]) -> SimplicialComplex:
    """The full subcomplex on vertex subset ``t``: all simplices inside ``t``.

    On a flag complex, the clique complex of the full subgraph on ``t``; on a face
    list, level k keeps the k-simplices of L inside ``t``.  Both keep L's order.
    """
    wanted = set(t)
    for v in wanted:
        if v not in L._pos:
            raise ValueError(f"unknown vertex {v!r}")
    if L.rows is not None:
        return clique_complex(full_subgraph(Graph(L.labels, L.rows), wanted))
    kept = (tuple(s for s in level if wanted.issuperset(s)) for level in L.simplices)
    return SimplicialComplex(tuple(itertools.takewhile(len, kept)))


def link(L: SimplicialComplex, simplex: Iterable[str]) -> SimplicialComplex:
    """Link of a simplex: faces disjoint from it whose union with it is a face.

    On a flag complex, the full subcomplex on its common neighbours; on a face list,
    the faces containing it less its vertices, in L's order.  A facet's is empty.
    """
    s = L.simplex(simplex)
    if s not in L._face_set:
        raise ValueError(f"{s} is not a simplex of the complex")
    if L.rows is not None:
        common = reduce(int.__and__, (L.rows[L._pos[v]] for v in s))
        return full_subcomplex(L, [L.labels[i] for i in iter_bits(common)])
    inside = set(s)
    kept = (tuple(tuple(v for v in f if v not in inside) for f in level if inside.issubset(f))
            for level in L.simplices[len(s) :])  # two faces containing s first differ off s
    return SimplicialComplex(tuple(itertools.takewhile(len, kept)))


def _picker(positions: Sequence[int]) -> itemgetter:
    """Reads these positions of a tuple into a tuple, a single one included."""
    p = positions[0]
    return itemgetter(*positions) if len(positions) > 1 else itemgetter(slice(p, p + 1))


def links(L: SimplicialComplex, k: int) -> list[SimplicialComplex]:
    """The links of all k-simplices, in the order of ``L.faces(k)``; [] if k is not in 0..dim.

    One pass over the levels above k: each face hands its remainder to each
    of its (k + 1)-vertex subfaces, in L's order, so level j of entry i
    holds the (j + k + 1)-faces that contain ``L.faces(k)[i]``, with its
    vertices removed, in L's order.
    """
    index = {s: i for i, s in enumerate(L.faces(k))}
    out: list[list[list[Simplex]]] = [[] for _ in index]
    for j, level in enumerate(L.simplices[k + 1 :] if index else ()):
        size = range(j + k + 2)  # (subface, remainder) position splits, shared by the level
        splits = [
            (_picker(sub), _picker([p for p in size if p not in sub]))
            for sub in itertools.combinations(size, k + 1)
        ]
        for face in level:
            for sub, rest in splits:
                lk = out[index[sub(face)]]
                if len(lk) == j:
                    lk.append([])
                lk[j].append(rest(face))
    return [SimplicialComplex(tuple(map(tuple, lk))) for lk in out]


def one_skeleton(L: SimplicialComplex) -> Graph:
    return Graph.from_edges(L.labels, [(e[0], e[1]) for e in L.faces(1)])


def is_flag(L: SimplicialComplex) -> bool:
    """True when L is the clique complex of its own 1-skeleton."""
    return clique_complex(one_skeleton(L)) == L


def f_vector(L: SimplicialComplex) -> tuple[int, ...]:
    """Face counts by dimension; the empty complex has an empty f-vector."""
    return tuple(len(level) for level in L.simplices)


def euler_characteristic(L: SimplicialComplex) -> int:
    return sum((-1) ** k * len(level) for k, level in enumerate(L.simplices))

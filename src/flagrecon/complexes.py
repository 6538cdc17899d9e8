"""Abstract simplicial complexes, clique (flag) complexes, links and subcomplexes.

Simplices are stored as label tuples sorted by the complex's own vertex
order, grouped by dimension; level 0 always equals the vertex list.  The
complex with no vertices is legal and has dimension -1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .graphs import Graph, iter_bits

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "DimensionCapExceeded",
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


class DimensionCapExceeded(ValueError):
    """A clique grew past the configured dimension cap."""


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable simplicial complex.

    ``simplices[k]`` holds the k-simplices, each sorted by vertex position
    and the level sorted lexicographically by position.  Downward closure
    is the builder's responsibility; the constructor only guards the cheap
    invariants.  :func:`build_complex` closes and sorts outside face lists;
    :func:`clique_complex`, :func:`link`, :func:`links` and
    :func:`full_subcomplex` make closed, storage-ordered levels directly
    and hand them to ``_from_levels``.
    """

    labels: tuple[str, ...]
    simplices: tuple[tuple[Simplex, ...], ...]

    def __post_init__(self) -> None:
        if self.labels:
            if not self.simplices or self.simplices[0] != tuple((v,) for v in self.labels):
                raise ValueError("level 0 must equal the vertex list")
        elif self.simplices:
            raise ValueError("a complex without vertices has no simplices")
        for k, level in enumerate(self.simplices):
            if any(len(s) != k + 1 for s in level):
                raise ValueError(f"level {k} contains a simplex of the wrong size")
            if not level:
                raise ValueError("trailing empty simplex levels are not stored")

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
    Faces may list vertices in any order but must not repeat one.
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
        while len(by_dim) < len(idx):
            by_dim.append(set())
        for k in range(2, len(idx) + 1):
            by_dim[k - 1].update(itertools.combinations(idx, k))
    if not labels:
        return SimplicialComplex((), ())
    while len(by_dim) > 1 and not by_dim[-1]:
        by_dim.pop()
    simplices = tuple(
        tuple(tuple(labels[i] for i in s) for s in sorted(level)) for level in by_dim
    )
    return SimplicialComplex(labels, simplices)


# ---------------------------------------------------------------------------
# clique complexes
# ---------------------------------------------------------------------------


def clique_complex(g: Graph, max_dim: int | None = None) -> SimplicialComplex:
    """The flag complex of ``g``: every clique becomes a simplex.

    Built level by level from the adjacency bitsets.  Each clique carries
    ``up``, the vertices above its last one that are adjacent to all of it;
    a vertex starts with its neighbours above it.  Level k + 1 extends each
    k-clique by each v in its ``up``, with ``up & adj[v]`` above v as the new
    ``up``.  So every face is made once, and each level comes out in
    lexicographic order of positions, the storage order.  With ``max_dim``
    set, a non-empty level ``max_dim + 1`` raises :class:`DimensionCapExceeded`
    at once rather than truncating silently; no higher level is built.
    """
    adj, labels = g.adj, g.labels
    frontier = [((v,), adj[i] & (-1 << (i + 1))) for i, v in enumerate(labels)]
    levels: list[tuple[Simplex, ...]] = []
    while frontier:
        if max_dim is not None and len(levels) > max_dim:
            raise DimensionCapExceeded(
                f"clique on {len(levels) + 1} vertices exceeds the dimension cap {max_dim}"
            )
        levels.append(tuple(s for s, _ in frontier))
        frontier = [
            (s + (labels[v],), up & adj[v] & (-1 << (v + 1)))
            for s, up in frontier
            for v in iter_bits(up)
        ]
    return _from_levels(levels)


# ---------------------------------------------------------------------------
# subcomplexes and links
# ---------------------------------------------------------------------------


def _from_levels(levels: list[tuple[Simplex, ...]]) -> SimplicialComplex:
    """The complex with these closed, storage-ordered levels; none is the empty complex."""
    return SimplicialComplex(tuple(v for (v,) in levels[0]) if levels else (), tuple(levels))


def full_subcomplex(L: SimplicialComplex, t: Iterable[str]) -> SimplicialComplex:
    """The full subcomplex on vertex subset ``t``: all simplices inside ``t``.

    Level k keeps the k-simplices of L that lie inside ``t``, in L's order.
    """
    wanted = set(t)
    for v in wanted:
        if v not in L._pos:
            raise ValueError(f"unknown vertex {v!r}")
    levels = []
    for level in L.simplices:
        kept = tuple(s for s in level if wanted.issuperset(s))
        if not kept:
            break
        levels.append(kept)
    return _from_levels(levels)


def link(L: SimplicialComplex, simplex: Iterable[str]) -> SimplicialComplex:
    """Link of a simplex: faces disjoint from it whose union with it is a face.

    Level j holds the (j + |simplex|)-faces of L that contain the simplex,
    with its vertices removed, in L's order.  The link of a facet is the
    empty complex.
    """
    s = L.simplex(simplex)
    if s not in L._face_set:
        raise ValueError(f"{s} is not a simplex of the complex")
    sset = set(s)
    levels = []
    for level in L.simplices[len(s):]:
        kept = tuple(
            tuple(v for v in face if v not in sset) for face in level if sset.issubset(face)
        )
        if not kept:
            break
        levels.append(kept)
    return _from_levels(levels)


def _picker(positions: Sequence[int]) -> itemgetter:
    """Reads these positions of a tuple into a tuple, a single one included."""
    p = positions[0]
    return itemgetter(*positions) if len(positions) > 1 else itemgetter(slice(p, p + 1))


def links(L: SimplicialComplex, k: int) -> list[SimplicialComplex]:
    """The links of all k-simplices, in the order of ``L.faces(k)``; [] if k is not in 0..dim.

    One pass over the levels above k: each face hands its remainder to each
    of its (k + 1)-vertex subfaces, in L's order, so entry i equals
    ``link(L, L.faces(k)[i])``, storage order included.
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
    return [_from_levels([tuple(level) for level in lk]) for lk in out]


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

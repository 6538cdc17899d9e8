"""Homology-manifold detection through link homology.

A complex is a homology n-manifold when it is pure n-dimensional and the
link of every simplex has the reduced homology of a sphere of complementary
dimension.  Verdicts carry witnesses on failure and per-dimension counts of
verified simplices on success.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .complexes import Simplex, SimplicialComplex, links
from .homology import INTEGERS, GradedGroups, components, graph_homology
from .homology import reduced_homology

__all__ = [
    "sphere_homology",
    "maximal_simplices",
    "is_pure",
    "ManifoldWitness",
    "ManifoldVerdict",
    "is_homology_manifold",
    "SphereVerdict",
    "is_generalized_homology_sphere",
    "BoundaryPatternError",
    "boundary_of",
]


def sphere_homology(m: int) -> GradedGroups:
    """Reduced homology of the m-sphere: Z in degree m, zero elsewhere.

    m = -1 is the empty complex, whose only group is Z in degree -1.
    """
    if m < -1:
        raise ValueError("spheres have dimension >= -1")
    return GradedGroups({m: INTEGERS})


def maximal_simplices(L: SimplicialComplex) -> list[Simplex]:
    """Simplices with no proper coface, in storage order."""
    has_coface: set[Simplex] = set()
    for k in range(1, L.dimension + 1):
        for s in L.faces(k):
            has_coface.update(combinations(s, k))
    return [s for level in L.simplices for s in level if s not in has_coface]


def is_pure(L: SimplicialComplex, n: int) -> bool:
    """True when every maximal simplex has dimension exactly n."""
    if L.dimension == -1:
        raise ValueError("purity of the empty complex is undefined")
    return all(len(s) == n + 1 for s in maximal_simplices(L))


@dataclass
class ManifoldWitness:
    """A simplex whose local data breaks the manifold condition."""

    simplex: Simplex
    local_homology: GradedGroups
    detail: str


@dataclass
class ManifoldVerdict:
    is_manifold: bool
    dimension: int
    witnesses: tuple[ManifoldWitness, ...] = ()
    verified: dict[int, int] | None = None


def is_homology_manifold(L: SimplicialComplex, n: int) -> ManifoldVerdict:
    """Decide whether L is a homology n-manifold.

    Checks purity first, then walks every simplex by ascending dimension and
    compares its link's reduced homology against the sphere of complementary
    dimension.  Stops at the first failure and reports it as a witness.
    Equal links (antipodes of a cross-polytope) are computed once per walk.
    """
    if L.dimension == -1:
        raise ValueError("the empty complex is not tested for manifoldness")
    if n < 0:
        raise ValueError("manifold dimension must be nonnegative")
    for s in maximal_simplices(L):
        if len(s) - 1 != n:
            witness = ManifoldWitness(
                s,
                GradedGroups({len(s) - 1: INTEGERS}),  # the link of a facet is empty
                f"maximal simplex of dimension {len(s) - 1} in a complex tested at dimension {n}",
            )
            return ManifoldVerdict(False, n, (witness,))
    seen: dict[SimplicialComplex, GradedGroups] = {}
    for k, level in enumerate(L.simplices):
        expected = sphere_homology(n - k - 1)
        for s, lk in zip(level, links(L, k)):
            link_hom = seen[lk] if lk in seen else seen.setdefault(lk, reduced_homology(lk))
            if link_hom != expected:
                witness = ManifoldWitness(
                    s,
                    link_hom.shifted(k + 1),
                    f"link homology differs from the {n - k - 1}-sphere",
                )
                return ManifoldVerdict(False, n, (witness,))
    counts = {k: len(level) for k, level in enumerate(L.simplices)}
    return ManifoldVerdict(True, n, (), counts)


@dataclass
class SphereVerdict:
    """Outcome of a generalized-homology-sphere test, with its evidence."""

    is_sphere: bool
    dimension: int
    manifold: ManifoldVerdict | None
    homology: GradedGroups | None
    detail: str = ""


def is_generalized_homology_sphere(L: SimplicialComplex, n: int) -> SphereVerdict:
    """Homology n-manifold with the homology of the n-sphere.

    The empty complex is the (-1)-sphere: (L = empty, n = -1) passes as a
    special case; the empty complex at any other dimension is an error.
    """
    if L.dimension == -1:
        if n == -1:
            return SphereVerdict(
                True, -1, None, reduced_homology(L), "the empty complex is the (-1)-sphere"
            )
        raise ValueError("the empty complex is a sphere only at dimension -1")
    if n < 0:
        raise ValueError("nonempty complexes need sphere dimension >= 0")
    verdict = is_homology_manifold(L, n)
    if not verdict.is_manifold:
        return SphereVerdict(False, n, verdict, None, "not a homology manifold")
    hom = reduced_homology(L)
    if hom != sphere_homology(n):
        return SphereVerdict(False, n, verdict, hom, "global homology differs from the sphere")
    return SphereVerdict(True, n, verdict, hom)


class BoundaryPatternError(ValueError):
    """A vertex whose local homology fits neither the interior nor boundary pattern."""

    def __init__(self, vertex: str, local: GradedGroups, n: int):
        super().__init__(
            f"vertex {vertex!r} has local homology {local} at dimension {n}: "
            "neither interior (sphere) nor boundary (trivial) pattern"
        )
        self.vertex = vertex
        self.local_homology = local


def boundary_of(L: SimplicialComplex, n: int) -> frozenset[str]:
    """Vertices whose local homology is entirely trivial (the boundary pattern).

    Interior vertices of a homology n-manifold have vertex links with the
    homology of the (n-1)-sphere; boundary vertices have homologically
    trivial links.  Anything else raises :class:`BoundaryPatternError`.
    Requires a pure n-dimensional complex.  Up to dimension 2 the vertex links
    are graphs read off L's edges and triangles, purity included (no empty
    link; at n = 2 no isolated link vertex); above, one pass builds the links.
    """
    if L.dimension == -1:
        raise ValueError("the empty complex has no boundary")
    if n < 0:
        raise ValueError("manifold dimension must be nonnegative")
    if n <= 2:
        link_vertices: dict[str, list[str]] = {v: [] for v in L.labels}
        for a, b in L.faces(1):
            link_vertices[a].append(b)
            link_vertices[b].append(a)
        link_edges: dict[str, list[Simplex]] = {v: [] for v in L.labels}
        for a, b, c in L.faces(2):
            link_edges[a].append((b, c))
            link_edges[b].append((a, c))
            link_edges[c].append((a, b))
        pure = L.dimension == n and all(
            not n or lv and (n == 1 or len(set().union(*link_edges[v])) == len(lv))
            for v, lv in link_vertices.items()
        )
        shapes = [components(link_vertices[v], link_edges[v]) for v in L.labels]
        groups = {s: graph_homology(*s) for s in set(shapes)}
        hs = [groups[s] for s in shapes]
    else:
        pure = is_pure(L, n)
        hs = map(reduced_homology, links(L, 0)) if pure else []
    if not pure:
        raise ValueError(f"complex is not pure of dimension {n}")
    interior = sphere_homology(n - 1)
    out = []
    for v, h in zip(L.labels, hs):
        if h.is_trivial_everywhere:
            out.append(v)
        elif h != interior:
            raise BoundaryPatternError(v, h.shifted(1), n)
    return frozenset(out)

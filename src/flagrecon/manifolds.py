"""Homology-manifold detection through link homology.

A complex is a homology n-manifold when it is pure n-dimensional and the
link of every simplex has the reduced homology of a sphere of complementary
dimension; here n is always the complex's own dimension.  Verdicts carry a
witness on failure and per-dimension counts of verified simplices on success.
On a flag complex the link of sigma is the flag complex on its common neighbours N(sigma).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .complexes import Simplex, SimplicialComplex, links
from .graphs import components
from .homology import INTEGERS, GradedGroups, flag_homology, graph_homology, reduced_homology

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


def _first_impure(L: SimplicialComplex) -> Simplex | None:
    """The first maximal simplex below L's dimension, in storage order, if any."""
    nbhds = L.neighbourhoods
    maximal = maximal_simplices(L) if nbhds is None else (
        s for faces, ns in zip(L.simplices, nbhds) for s, common in zip(faces, ns) if not common
    )
    return next((s for s in maximal if len(s) <= L.dimension), None)


def is_pure(L: SimplicialComplex) -> bool:
    """True when every maximal simplex has dimension ``L.dimension``."""
    if L.dimension == -1:
        raise ValueError("purity of the empty complex is undefined")
    return _first_impure(L) is None


def _link_groups(L: SimplicialComplex, lk: SimplicialComplex | int, m: int) -> GradedGroups | None:
    """None when a link of dimension <= m has the homology of the m-sphere, else
    its reduced homology.  ``lk`` is the link or, with ``rows``, N(sigma): up to
    m = 1 counts give the groups, and above it :func:`flag_homology`, with no link built."""
    if isinstance(lk, int) and m <= 1:
        v, e, c = components(L.rows, lk) if m == 1 else (lk.bit_count(), 0, lk.bit_count())
        if (e, c) == ((0, 0), (0, 2), (v, 1))[m + 1]:  # the (-1)-, 0- and 1-sphere
            return None
        return graph_homology(v, e, c)
    h = flag_homology(L.rows, lk) if isinstance(lk, int) else reduced_homology(lk)
    return None if h == sphere_homology(m) else h


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
    witness: ManifoldWitness | None = None
    verified: dict[int, int] | None = None


def is_homology_manifold(L: SimplicialComplex) -> ManifoldVerdict:
    """Decide whether L is a homology n-manifold, n = ``L.dimension``.

    Checks purity first, then walks every simplex by ascending dimension and
    compares its link's reduced homology against the sphere of complementary
    dimension.  Stops at the first failure and reports it as the witness.
    Equal links (antipodes of a cross-polytope) are computed once per walk.
    With ``rows`` each link is tested as it is made, from N(sigma).
    """
    n = L.dimension
    if n == -1:
        raise ValueError("the empty complex is not tested for manifoldness")
    s = _first_impure(L)
    if s is not None:
        witness = ManifoldWitness(
            s,
            GradedGroups({len(s) - 1: INTEGERS}),  # the link of a facet is empty
            f"maximal simplex of dimension {len(s) - 1} in a complex tested at dimension {n}",
        )
        return ManifoldVerdict(False, n, witness)
    seen: dict[SimplicialComplex | int, GradedGroups | None] = {}  # by link, or by N(sigma)
    for k, level in enumerate(L.simplices):
        for s, lk in zip(level, links(L, k) if L.rows is None else L.neighbourhoods[k]):
            h = seen[lk] if lk in seen else seen.setdefault(lk, _link_groups(L, lk, n - k - 1))
            if h is not None:
                witness = ManifoldWitness(
                    s,
                    h.shifted(k + 1),
                    f"link homology differs from the {n - k - 1}-sphere",
                )
                return ManifoldVerdict(False, n, witness)
    counts = {k: len(level) for k, level in enumerate(L.simplices)}
    return ManifoldVerdict(True, n, None, counts)


@dataclass
class SphereVerdict:
    """Outcome of a generalized-homology-sphere test, with its evidence."""

    is_sphere: bool
    dimension: int
    manifold: ManifoldVerdict | None
    homology: GradedGroups | None
    detail: str = ""


def is_generalized_homology_sphere(L: SimplicialComplex) -> SphereVerdict:
    """Homology n-manifold with the homology of the n-sphere, n = ``L.dimension``.

    The empty complex is the (-1)-sphere.
    """
    n = L.dimension
    if n == -1:
        return SphereVerdict(
            True, -1, None, reduced_homology(L), "the empty complex is the (-1)-sphere"
        )
    verdict = is_homology_manifold(L)
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


def boundary_of(L: SimplicialComplex) -> frozenset[str]:
    """Vertices whose local homology is entirely trivial (the boundary pattern).

    Interior vertices of a homology n-manifold (n = ``L.dimension``, and L
    must be pure) have vertex links with the homology of the (n-1)-sphere;
    boundary vertices have homologically trivial links.  Anything else raises
    :class:`BoundaryPatternError`.  Purity and the vertex links are read as
    the walk reads them: with ``rows`` each link from N(v), without them from
    one ``links`` pass.
    """
    n = L.dimension
    if n == -1:
        raise ValueError("the empty complex has no boundary")
    if not is_pure(L):
        raise ValueError(f"complex is not pure of dimension {n}")
    hs = [_link_groups(L, lk, n - 1) for lk in (links(L, 0) if L.rows is None else L.rows)]
    for v, h in zip(L.labels, hs):
        if h is not None and not h.is_trivial_everywhere:
            raise BoundaryPatternError(v, h.shifted(1), n)
    return frozenset(v for v, h in zip(L.labels, hs) if h is not None)

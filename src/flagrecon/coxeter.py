"""The right-angled Coxeter dictionary, computed entirely on the nerve side.

A graph determines a right-angled Coxeter system whose nerve is the clique
complex; the group itself is never materialised.  Finiteness, irreducibility,
direct-product peeling, virtual Poincare duality and finite generation of
group-ring cohomology are all decided through their graph/complex
equivalents:

* spherical subset      <-> clique
* finite group          <-> complete graph
* irreducible system    <-> connected complement
* product decomposition <-> join decomposition, spherical factor = universal vertices
* virtual PD of dim n   <-> after peeling the spherical factor, the core's
                            complex is a generalized homology (n-1)-sphere
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .complexes import SimplicialComplex, Simplex, clique_complex, full_subcomplex
from .graphs import Graph, _dismantled, iter_bits
from .homology import AbelianGroup, GradedGroups, flag_homology, reduced_homology
from .homology import universal_coefficients
from .manifolds import SphereVerdict, is_generalized_homology_sphere

__all__ = [
    "NerveSystem",
    "is_spherical",
    "spherical_subsets",
    "is_finite_group",
    "is_irreducible",
    "join_decomposition",
    "PDVerdict",
    "is_virtual_pd",
    "Condition3Witness",
    "Condition3Result",
    "condition3_vanishing",
    "NOT_FINITELY_GENERATED",
    "coxeter_cohomology_if_fg",
    "LemmaKeyReport",
    "lemma_key_crosscheck",
]


@dataclass(frozen=True)
class NerveSystem:
    """A right-angled system given by its graph; its nerve, the clique complex, is
    derived at construction, so a nerve over ``MAX_FACES`` faces raises at once.

    It is also the one analysis of its graph: each derived fact below is
    computed on first use and kept on the object, so the report, the
    certificate and the crosscheck share one evaluation; no cache outlives it.
    """

    graph: Graph
    nerve: SimplicialComplex = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nerve", clique_complex(self.graph))

    @classmethod
    def from_graph(cls, g: Graph) -> "NerveSystem":
        return cls(g)

    @cached_property
    def irreducible(self) -> bool:
        return is_irreducible(self)

    @cached_property
    def sphere(self) -> SphereVerdict:
        """Sphere verdict of the whole nerve; its ``manifold`` is the manifold verdict."""
        return is_generalized_homology_sphere(self.nerve)

    @cached_property
    def homology(self) -> GradedGroups:
        """Reduced homology of the nerve; a manifold's sphere verdict, once made, holds it."""
        sphere = self.__dict__.get("sphere")  # a verdict already made; never forces one
        return sphere.homology if sphere and sphere.homology else reduced_homology(self.nerve)

    @cached_property
    def virtual_pd(self) -> PDVerdict:
        return is_virtual_pd(self)

    @cached_property
    def condition3(self) -> Condition3Result:
        return condition3_vanishing(self)


def is_spherical(ns: NerveSystem, t: Iterable[str]) -> bool:
    """A subset generates a finite standard subgroup exactly when it is a clique."""
    vs = list(t)
    for v in vs:
        ns.graph.index(v)
    if len(set(vs)) != len(vs):
        raise ValueError("repeated vertex in subset")
    if not vs:
        return True
    return ns.nerve.has_simplex(vs)


def spherical_subsets(ns: NerveSystem) -> list[Simplex]:
    """All nonempty spherical subsets, by size then storage order."""
    return [s for level in ns.nerve.simplices for s in level]


def is_finite_group(ns: NerveSystem) -> bool:
    """The group is finite exactly when the graph is complete."""
    n = ns.graph.vertex_count
    if n == 0:
        raise ValueError("empty vertex set")
    return ns.graph.edge_count == n * (n - 1) // 2


def is_irreducible(ns: NerveSystem) -> bool:
    """No nontrivial direct-product splitting: the complement is connected, searched on bitsets."""
    adj, full = ns.graph.adj, (1 << ns.graph.vertex_count) - 1
    if not full:
        raise ValueError("empty vertex set")
    seen = frontier = 1
    while frontier:  # the frontier's complement neighbours: outside its common neighbourhood
        common = full
        for i in iter_bits(frontier):
            common &= adj[i]
        frontier = full & ~common & ~seen
        seen |= frontier
    return seen == full


def join_decomposition(ns: NerveSystem) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split off the maximal spherical direct factor.

    Returns (core, spherical_factor); the spherical factor is the set of
    universal vertices, which is always a clique, and the graph is the join
    of the two sides.  Either side may be empty.
    """
    n = ns.graph.vertex_count
    full = (1 << n) - 1
    t1 = [
        v
        for i, v in enumerate(ns.graph.labels)
        if ns.graph.adj[i] == full & ~(1 << i)
    ]
    t1_set = set(t1)
    t0 = tuple(v for v in ns.graph.labels if v not in t1_set)
    return t0, tuple(t1)


@dataclass
class PDVerdict:
    """Virtual Poincare duality verdict with the peeling that produced it; ``degenerate``
    is dimension 0 (a finite group: everything peeled away, the core complex empty)."""

    is_vpd: bool
    dimension: int | None
    core: tuple[str, ...]
    spherical_factor: tuple[str, ...]
    core_sphere: SphereVerdict

    @property
    def degenerate(self) -> bool:
        return self.dimension == 0


def is_virtual_pd(ns: NerveSystem) -> PDVerdict:
    """Virtual Poincare duality of dimension n via product peeling.

    The group is virtually PD of dimension n exactly when, after splitting
    off the maximal spherical factor, the core's complex is a generalized
    homology (n-1)-sphere.  No smaller factor can do better: removing fewer
    universal vertices leaves a cone, and a nonempty cone is never a
    homology sphere.  Without universal vertices the core is the whole
    nerve, whose sphere verdict the system already keeps.
    """
    t0, t1 = join_decomposition(ns)
    if t1:
        core = full_subcomplex(ns.nerve, t0)
        sphere = is_generalized_homology_sphere(core)
    else:
        sphere = ns.sphere
    if sphere.is_sphere:
        return PDVerdict(True, sphere.dimension + 1, t0, t1, sphere)
    return PDVerdict(False, None, t0, t1, sphere)


@dataclass
class Condition3Witness:
    subset: Simplex
    degree: int
    group: AbelianGroup


@dataclass
class Condition3Result:
    holds: bool
    witness: Condition3Witness | None
    subsets_checked: int


def _complement_cohomologies(ns: NerveSystem) -> Iterator[tuple[Simplex, GradedGroups]]:
    """Each nonempty spherical T, in (size, storage) order, with the reduced
    cohomology of the full subcomplex on the remaining vertices W.

    The groups are computed on the core of W, which has the same homotopy
    type: a vertex whose closed neighbourhood in W lies in a neighbour's has
    a cone for its link, and deleting it is a strong collapse; T and W are
    bitsets, tested against closed neighbourhood rows built once per sweep.
    Each core's groups are computed once, by :func:`flag_homology` on its bitset; a
    one-vertex core is contractible and skipped, but the empty W of T = V gives Z in degree -1.
    """
    g = ns.graph
    closed = [a | 1 << i for i, a in enumerate(g.adj)]
    bit = {v: 1 << i for i, v in enumerate(g.labels)}
    full = (1 << g.vertex_count) - 1
    seen = {b: GradedGroups({}) for b in bit.values()}  # by core bitset
    for t in spherical_subsets(ns):
        core = _dismantled(closed, full & ~sum(map(bit.__getitem__, t)))
        if core not in seen:
            seen[core] = universal_coefficients(flag_homology(g.adj, core))
        yield t, seen[core]


def condition3_vanishing(ns: NerveSystem) -> Condition3Result:
    """Vanishing of the complement cohomology over every spherical subset.

    For each nonempty spherical T, the full subcomplex on the remaining
    vertices W must have trivial reduced cohomology in every degree.  The
    first failure, in deterministic (size, storage) order, is the witness.
    That subcomplex is the clique complex of the graph induced on W, whose
    dominated vertices are deleted first: each deletion is a strong
    collapse, so the groups, and the witness, do not change.
    """
    checked = 0
    for checked, (t, coh) in enumerate(_complement_cohomologies(ns), 1):
        if coh.by_degree:
            degree = min(coh.by_degree)
            return Condition3Result(False, Condition3Witness(t, degree, coh.group(degree)), checked)
    return Condition3Result(True, None, checked)


class _NotFinitelyGenerated:
    """Marker: the requested group-ring cohomology is not finitely generated."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOT_FINITELY_GENERATED"


NOT_FINITELY_GENERATED = _NotFinitelyGenerated()


def coxeter_cohomology_if_fg(ns: NerveSystem, i: int) -> AbelianGroup | _NotFinitelyGenerated:
    """Group-ring cohomology in degree i, when finitely generated.

    For an irreducible system, H^i of the group with group-ring coefficients
    is finitely generated exactly when the complement cohomology in degree
    i-1 vanishes over every nonempty spherical subset, and it then equals
    the nerve's reduced cohomology in degree i-1.  Otherwise the marker
    ``NOT_FINITELY_GENERATED`` is returned.  The system's condition-3 verdict
    settles this when it holds or its witness has degree i-1; only otherwise
    is the sweep run again, for degree i-1.
    """
    if i < 0:
        raise ValueError("cohomological degree must be nonnegative")
    if not ns.irreducible:
        raise ValueError("the dictionary applies to irreducible systems only")
    c3 = ns.condition3
    if not c3.holds and (
        c3.witness.degree == i - 1
        or any(not coh.group(i - 1).is_trivial for _, coh in _complement_cohomologies(ns))
    ):
        return NOT_FINITELY_GENERATED
    return universal_coefficients(ns.homology).group(i - 1)


@dataclass
class LemmaKeyReport:
    """Three equivalent conditions, each read from its own verdict.

    For an irreducible infinite system these must agree; a disagreement is
    an implementation defect, not a mathematical possibility.
    """

    virtual_pd: PDVerdict
    sphere: SphereVerdict
    vanishing: Condition3Result

    @property
    def statements(self) -> tuple[bool, bool, bool]:
        return (self.virtual_pd.is_vpd, self.sphere.is_sphere, self.vanishing.holds)

    @property
    def consistent(self) -> bool:
        return len(set(self.statements)) == 1


def lemma_key_crosscheck(ns: NerveSystem) -> LemmaKeyReport:
    """Evaluate virtual PD, sphere, and vanishing on the system and report.

    Requires an irreducible infinite system; outside that hypothesis the
    three statements are not equivalent and the crosscheck is meaningless.
    Such a system has no universal vertex, so the PD verdict tests the same
    complex as the sphere statement, and the vanishing is a separate sweep.
    """
    if not ns.irreducible:
        raise ValueError("crosscheck requires an irreducible system")
    if is_finite_group(ns):
        raise ValueError("crosscheck requires an infinite group")
    return LemmaKeyReport(ns.virtual_pd, ns.sphere, ns.condition3)

"""Decks, hypomorphisms, reconstructibility certificates and card recovery.

A certificate is one-directional: it asserts that the deck determines the
graph (by one of two sufficient criteria), never that a graph without a
certificate is ambiguous.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .complexes import clique_complex
from .coxeter import NerveSystem, PDVerdict
from .graphs import Graph, canonical_form, graph_from_canonical_form, iter_bits
from .graphs import vertex_deleted, vertex_orbits
from .manifolds import ManifoldVerdict, boundary_of

__all__ = [
    "Deck",
    "deck",
    "are_hypomorphic",
    "VERDICT_THEOREM_1",
    "VERDICT_THEOREM_2",
    "VERDICT_NONE",
    "NO_CERTIFICATE_CAVEAT",
    "Certificate",
    "certify_reconstructible",
    "reconstruct_from_card",
    "enumerate_graphs",
    "brute_force_oracle",
]


@dataclass
class Deck:
    """Multiset of vertex-deleted cards, keyed by canonical form.

    ``matching`` records which deleted vertex produced which card class.
    """

    cards: dict[bytes, int]
    matching: dict[str, bytes]

    @property
    def size(self) -> int:
        return sum(self.cards.values())

    def key(self) -> tuple[tuple[bytes, int], ...]:
        """Hashable identity of the multiset, for grouping decks."""
        return tuple(sorted(self.cards.items()))


def deck(g: Graph) -> Deck:
    """All vertex-deleted cards of ``g`` as a canonical-form multiset.

    One card is labelled per class of ``vertex_orbits(g)``: its vertices' cards are isomorphic.
    """
    if g.vertex_count < 1:
        raise ValueError("decks need at least one vertex")
    card_of: dict[str, bytes] = {}
    for orbit in vertex_orbits(g):
        card_of.update(dict.fromkeys(orbit, canonical_form(vertex_deleted(g, orbit[0]))))
    matching = {v: card_of[v] for v in g.labels}
    return Deck(dict(Counter(matching.values())), matching)


def are_hypomorphic(g1: Graph, g2: Graph) -> dict[str, str] | None:
    """A deck-respecting bijection between the vertex sets, if one exists.

    Cards are matched class by class; inside a class, vertices are paired in
    sorted label order, which makes the returned bijection deterministic.
    Isomorphic graphs always have one.  Returns None when the decks differ.
    """
    d1, d2 = deck(g1), deck(g2)
    if d1.key() != d2.key():
        return None
    order1 = sorted(g1.labels, key=lambda v: (d1.matching[v], v))
    order2 = sorted(g2.labels, key=lambda v: (d2.matching[v], v))
    return dict(zip(order1, order2))


VERDICT_THEOREM_1 = "theorem_1"
VERDICT_THEOREM_2 = "theorem_2"
VERDICT_NONE = "none"

NO_CERTIFICATE_CAVEAT = (
    "no certificate: the implemented criteria are sufficient conditions only, "
    "so this verdict does not assert that the graph is unreconstructible"
)


@dataclass
class Certificate:
    """Reconstructibility certificate with the evidence behind it.

    ``theorem_2``: the clique complex is a homology n-manifold, n >= 1.
    ``theorem_1``: the associated right-angled group is virtually PD of
    dimension n >= 1.  When both hold, theorem_2 wins (it carries the
    stronger, directly geometric evidence).  ``none`` always carries the
    caveat.
    """

    verdict: str
    dimension: int | None
    manifold: ManifoldVerdict | None
    virtual_pd: PDVerdict | None
    caveat: str | None = None


def certify_reconstructible(g: Graph) -> Certificate:
    """Certify that the deck of ``g`` determines it, if a criterion applies.

    Requires at least 3 vertices (below that the deck carries too little
    information for either criterion to make sense).
    """
    if g.vertex_count < 3:
        raise ValueError("certificates require at least 3 vertices")
    return _certify(NerveSystem.from_graph(g))


def _certify(ns: NerveSystem) -> Certificate:
    """The certificate read from the system's facts; below 3 vertices, none."""
    if ns.graph.vertex_count < 3:
        caveat = f"{NO_CERTIFICATE_CAVEAT}; graphs below 3 vertices are not certified"
        return Certificate(VERDICT_NONE, None, None, None, caveat)
    n = ns.nerve.dimension
    manifold = ns.sphere.manifold if n >= 1 else None
    if manifold is not None and manifold.is_manifold:
        return Certificate(VERDICT_THEOREM_2, n, manifold, None)
    pd = ns.virtual_pd
    if pd.is_vpd and pd.dimension is not None and pd.dimension >= 1:
        return Certificate(VERDICT_THEOREM_1, pd.dimension, manifold, pd)
    return Certificate(VERDICT_NONE, None, manifold, pd, NO_CERTIFICATE_CAVEAT)


def _fresh_label(taken: tuple[str, ...]) -> str:
    label = "*"
    while label in taken:
        label += "*"
    return label


def reconstruct_from_card(card: Graph, n: int) -> Graph:
    """Recover a graph from one card, assuming the original's clique complex
    is a homology n-manifold without boundary.

    Deleting a vertex punches a hole whose rim is exactly the deleted
    vertex's neighbourhood: in the card's clique complex those are the
    vertices whose local homology has gone trivial.  The lost vertex is
    reattached along that rim.  The card's clique complex has dimension n
    too: it is built whole, under ``MAX_FACES`` like every complex, and any
    other dimension, above n or below, raises ``ValueError``.  A card of any
    other shape fails the boundary scan.
    """
    if n < 1:
        raise ValueError("card recovery needs manifold dimension n >= 1")
    L = clique_complex(card)
    if L.dimension != n:
        raise ValueError(f"the card's clique complex has dimension {L.dimension}, not {n}")
    rim = boundary_of(L)
    label = _fresh_label(card.labels)
    edges = card.edges() + [(label, v) for v in sorted(rim, key=card.index)]
    return Graph.from_edges(card.labels + (label,), edges)


def enumerate_graphs(n: int) -> list[Graph]:
    """One canonically labelled representative per isomorphism class of order n.

    Grown from the classes one order down by attaching a new vertex of minimum
    degree, deduplicating by canonical form.  Exact: deleting a minimum-degree
    vertex v of G leaves a copy of some class H, and joining a new vertex to the
    image of N(v) in H rebuilds G.  Capped at n = 8 (12346 classes).
    """
    if not 1 <= n <= 8:
        raise ValueError("enumeration supports 1 <= n <= 8")
    reps: dict[bytes, Graph] = {}
    single = Graph(("0",), (0,))
    reps[canonical_form(single)] = single
    for k in range(2, n + 1):
        grown: dict[bytes, Graph] = {}
        for g in reps.values():
            labels = g.labels + (str(k - 1),)
            degrees = [row.bit_count() for row in g.adj]
            for mask in range(1 << (k - 1)):
                if any(d + (mask >> i & 1) < mask.bit_count() for i, d in enumerate(degrees)):
                    continue
                adj = list(g.adj) + [mask]
                for i in iter_bits(mask):
                    adj[i] |= 1 << (k - 1)
                cert = canonical_form(Graph(labels, tuple(adj)))
                if cert not in grown:
                    grown[cert] = graph_from_canonical_form(cert)
        reps = grown
    return [reps[c] for c in sorted(reps)]


def _deck_invariant(g: Graph) -> tuple:
    """Sorted (degree sequence, triangle count) of the cards, read off ``g.adj``.

    Both are invariants of each card, so the multiset is a function of the deck.
    """
    degrees = [row.bit_count() for row in g.adj]
    tri = [sum((g.adj[u] & row).bit_count() for u in iter_bits(row)) // 2 for row in g.adj]
    total = sum(tri) // 3
    return tuple(sorted(
        (tuple(sorted(d - (row >> u & 1) for u, d in enumerate(degrees) if u != v)), total - tri[v])
        for v, row in enumerate(g.adj)
    ))


def brute_force_oracle(graphs: list[Graph]) -> list[list[Graph]]:
    """Group pairwise non-isomorphic graphs by identical decks.

    Returns the groups of size >= 2: families of mutually hypomorphic,
    non-isomorphic graphs.  Callers must pass one representative per
    isomorphism class; duplicates would show up as fake groups.  Only graphs
    sharing their ``_deck_invariant`` get a deck: hypomorphic graphs share it.
    """
    if any(g.vertex_count < 1 for g in graphs):
        raise ValueError("decks need at least one vertex")
    keys = [_deck_invariant(g) for g in graphs]
    shared = Counter(keys)
    by_deck: dict[tuple, list[Graph]] = {}
    for g, key in zip(graphs, keys):
        if shared[key] > 1:
            by_deck.setdefault(deck(g).key(), []).append(g)
    return [group for group in by_deck.values() if len(group) > 1]

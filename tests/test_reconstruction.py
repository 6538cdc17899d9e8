"""Decks, hypomorphism, certificates, and card-level reconstruction."""

from collections import Counter
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagrecon as fr
from flagrecon import reconstruction
from oracles import (
    all_decks_oracle,
    barycentric_subdivision,
    edge_list_reconstruct,
    graphs,
    hub,
    iso_bijection,
    projective_plane,
    reordered,
    subdivided,
    suffixed,
    symmetric_graphs,
    unpruned_enumerate_graphs,
)


MANIFOLD_CORPUS = [
    (fr.cycle(5), 1),
    (fr.cycle(6), 1),
    (fr.cycle(7), 1),
    (fr.cross_polytope(2), 1),
    (fr.cross_polytope(3), 2),
    (fr.torus_grid(4, 4), 2),
    (fr.icosahedron(), 2),
]


# -------------------------------------------------------------------- decks


def test_deck_of_a_cycle_is_one_path_class():
    d = fr.deck(fr.cycle(5))
    assert d.size == 5
    assert d.cards == {fr.canonical_form(fr.path(4)): 5}


def test_deck_of_the_octahedron_is_six_wheels():
    d = fr.deck(fr.cross_polytope(3))
    wheel = fr.join(fr.cycle(4), hub())
    assert d.cards == {fr.canonical_form(wheel): 6}


def test_deck_of_a_path_has_two_card_classes():
    d = fr.deck(fr.path(4))
    # endpoint deletion leaves P3, middle deletion leaves K2 + K1
    assert sorted(d.cards.values()) == [2, 2]


def test_deck_matching_covers_every_vertex():
    g = fr.torus_grid(4, 4)
    d = fr.deck(g)
    assert set(d.matching) == set(g.labels)
    assert all(d.matching[v] in d.cards for v in g.labels)
    assert d.size == g.vertex_count


def test_deck_of_a_single_vertex():
    d = fr.deck(fr.complete(1))
    assert d.size == 1


def test_deck_of_empty_graph_rejected():
    with pytest.raises(ValueError):
        fr.deck(fr.Graph((), ()))


C5 = fr.cycle(5)


@pytest.mark.parametrize(
    "g",
    [fr.torus_grid(6, 6), fr.torus_grid(6, 7), fr.torus_grid(7, 7), fr.cross_polytope(5),
     fr.icosahedron(), fr.join(C5, suffixed(C5, "'"))],
    ids=["torus66", "torus67", "torus77", "cross_polytope5", "icosahedron", "C5*C5"],
)
def test_deck_of_a_vertex_transitive_graph_labels_one_card(g, monkeypatch):
    """The automorphisms a backjumping search records still join every vertex into one orbit."""
    labelled = []
    label = fr.canonical_form
    monkeypatch.setattr(reconstruction, "canonical_form", lambda h: labelled.append(h) or label(h))
    assert fr.deck(g).size == g.vertex_count
    assert len(labelled) == 1


@given(graphs(min_n=2, max_n=7), st.data())
def test_deck_key_is_an_isomorphism_invariant(g, data):
    h = reordered(g, data.draw(st.permutations(g.labels)))
    assert fr.deck(g).key() == fr.deck(h).key()


@given(st.one_of(graphs(), symmetric_graphs()))
def test_deck_matches_one_labelling_per_vertex(g):
    matching = {v: fr.canonical_form(fr.vertex_deleted(g, v)) for v in g.labels}
    d = fr.deck(g)
    assert d.matching == matching
    assert d.cards == Counter(matching.values())


# ------------------------------------------------------------- hypomorphism


def test_k2_and_its_complement_are_hypomorphic_but_not_isomorphic():
    k2 = fr.complete(2)
    e2 = fr.complement(k2)
    matching = fr.are_hypomorphic(k2, e2)
    assert matching is not None
    assert not fr.are_isomorphic(k2, e2)
    # the bijection really matches cards
    for v, w in matching.items():
        c1 = fr.vertex_deleted(k2, v)
        c2 = fr.vertex_deleted(e2, w)
        assert fr.are_isomorphic(c1, c2)


def test_isomorphic_graphs_are_hypomorphic():
    g = fr.cycle(6)
    h = g.relabel({str(i): str((i * 5) % 6) for i in range(6)})
    assert fr.are_hypomorphic(g, h) is not None


@given(graphs(min_n=1, max_n=7), st.data())
def test_hypomorphism_pairs_each_card_class_in_sorted_label_order(g, data):
    h = reordered(g, data.draw(st.permutations(g.labels))).relabel({v: v + "'" for v in g.labels})
    bijection = fr.are_hypomorphic(g, h)
    d1, d2 = fr.deck(g), fr.deck(h)
    assert sorted(bijection) == sorted(g.labels)
    assert sorted(bijection.values()) == sorted(h.labels)
    for card in d1.cards:
        vs1 = sorted(v for v in g.labels if d1.matching[v] == card)
        vs2 = sorted(v for v in h.labels if d2.matching[v] == card)
        assert [bijection[v] for v in vs1] == vs2


def test_distinct_decks_are_not_hypomorphic():
    assert fr.are_hypomorphic(fr.cycle(5), fr.path(5)) is None
    assert fr.are_hypomorphic(fr.cycle(5), fr.cycle(6)) is None


# ------------------------------------------------------------- certificates


@pytest.mark.parametrize(
    "g,verdict,dim",
    [
        (fr.cycle(4), "theorem_2", 1),
        (fr.cycle(7), "theorem_2", 1),
        (fr.cross_polytope(3), "theorem_2", 2),
        (fr.torus_grid(4, 4), "theorem_2", 2),
        (fr.icosahedron(), "theorem_2", 2),
        (fr.join(fr.cycle(5), hub()), "theorem_1", 2),
        (fr.join(fr.cycle(5), fr.complete(2).relabel({"0": "x", "1": "y"})), "theorem_1", 2),
    ],
)
def test_certificates_for_reconstructible_graphs(g, verdict, dim):
    cert = fr.certify_reconstructible(g)
    assert cert.verdict == verdict
    assert cert.dimension == dim
    assert cert.caveat is None


def test_theorem_2_takes_priority_over_theorem_1():
    # the octahedron satisfies both criteria; the manifold one wins
    cert = fr.certify_reconstructible(fr.cross_polytope(3))
    assert cert.verdict == "theorem_2"
    assert cert.manifold is not None and cert.manifold.is_manifold


def test_no_certificate_keeps_the_evidence_and_the_caveat():
    cert = fr.certify_reconstructible(fr.path(4))
    assert cert.verdict == "none"
    assert cert.dimension is None
    assert cert.caveat == fr.reconstruction.NO_CERTIFICATE_CAVEAT
    assert cert.manifold is not None and not cert.manifold.is_manifold


@pytest.mark.parametrize("g", [fr.complete(4), fr.path(5), fr.complete_multipartite([1, 3])])
def test_uncertified_graphs(g):
    assert fr.certify_reconstructible(g).verdict == "none"


def test_disconnected_manifold_still_certifies():
    g = fr.disjoint_union(
        fr.cycle(4), fr.cycle(4).relabel({str(i): f"b{i}" for i in range(4)})
    )
    cert = fr.certify_reconstructible(g)
    assert cert.verdict == "theorem_2" and cert.dimension == 1


def test_small_graphs_are_not_certified():
    with pytest.raises(ValueError):
        fr.certify_reconstructible(fr.complete(2))


def test_degenerate_duality_dimension_is_not_a_certificate():
    # complete graphs give the dimension-0 duality verdict, which the
    # certificate logic deliberately refuses
    assert fr.is_virtual_pd(fr.NerveSystem.from_graph(fr.complete(5))).is_vpd
    assert fr.certify_reconstructible(fr.complete(5)).verdict == "none"


# ------------------------------------------------------------ reconstruction


@pytest.mark.parametrize("g,n", MANIFOLD_CORPUS)
def test_every_card_reconstructs_the_original(g, n):
    for v in g.labels:
        card = fr.vertex_deleted(g, v)
        rebuilt = fr.reconstruct_from_card(card, n)
        assert fr.are_isomorphic(rebuilt, g)


def test_every_card_class_of_a_manifold_with_torsion_reconstructs_the_original():
    # the subdivided projective plane: a flag 2-manifold with H~1 = Z/2,
    # whose vertices (old vertices, edges and triangles) fall in 3 classes
    g = barycentric_subdivision(projective_plane())
    orbits = fr.vertex_orbits(g)
    assert len(orbits) == 3
    for orbit in orbits:
        assert fr.are_isomorphic(fr.reconstruct_from_card(fr.vertex_deleted(g, orbit[0]), 2), g)


# ------------------------------------------------- generated flag manifolds


SUBDIVISION_BASES = [
    fr.cross_polytope(2),
    fr.cross_polytope(3),
    fr.cross_polytope(4),
    fr.torus_grid(4, 4),
    fr.torus_grid(4, 5),
    fr.join(fr.cycle(5), suffixed(fr.cycle(5), "b")),
]


@cache
def base_homology(i: int) -> tuple[fr.GradedGroups, int]:
    L = fr.clique_complex(SUBDIVISION_BASES[i])
    return fr.reduced_homology(L), L.dimension


@given(st.integers(0, len(SUBDIVISION_BASES) - 1), st.integers(0, 6), st.integers(0, 999))
def test_subdivided_flag_manifolds_keep_their_homology_certificate_and_cards(i, steps, seed):
    # stellar edge subdivisions keep the PL type, so every verdict is known in advance
    g = subdivided(SUBDIVISION_BASES[i], steps, seed)
    homology, n = base_homology(i)
    ns = fr.NerveSystem.from_graph(g)
    assert ns.homology == homology
    cert = fr.certify_reconstructible(g)
    assert (cert.verdict, cert.dimension) == ("theorem_2", n)
    for c in fr.deck(g).cards:
        assert fr.are_isomorphic(fr.reconstruct_from_card(fr.graph_from_canonical_form(c), n), g)
    if ns.irreducible and not fr.is_finite_group(ns):
        assert fr.lemma_key_crosscheck(ns).consistent


@given(st.integers(0, 6), st.integers(0, 999))
def test_a_cone_over_a_subdivided_octahedron_is_theorem_1_with_a_boundary(steps, seed):
    # a 3-ball: its group is virtually PD of dimension 3, but it is no closed manifold
    sphere = subdivided(fr.cross_polytope(3), steps, seed)
    g = fr.join(sphere, hub())
    cert = fr.certify_reconstructible(g)
    assert (cert.verdict, cert.dimension) == ("theorem_1", 3)
    assert fr.boundary_of(fr.NerveSystem.from_graph(g).nerve) == frozenset(sphere.labels)


def test_two_octahedra_wedged_at_a_vertex_name_it_as_the_witness():
    octahedron = fr.cross_polytope(3)
    edges = [
        (f"{side}{u}" if u != "0" else "w", f"{side}{v}" if v != "0" else "w")
        for side in "ab"
        for u, v in octahedron.edges()
    ]
    g = fr.Graph.from_edges(sorted({v for e in edges for v in e}), edges)
    cert = fr.certify_reconstructible(g)
    assert cert.verdict == "none"
    assert cert.manifold.witness.simplex == ("w",)


@pytest.mark.parametrize("g,n", MANIFOLD_CORPUS)
def test_card_boundary_is_the_lost_neighbourhood(g, n):
    # the deleted vertex leaves its neighbour set behind as the boundary
    # of the punctured complex; this is what makes reconstruction work
    for v in g.labels:
        card = fr.vertex_deleted(g, v)
        rim = fr.boundary_of(fr.clique_complex(card))
        assert rim == frozenset(g.neighbors(v))


# perfbench's small deck_roundtrip corpus, with subdivisions at other seeds, and larger
# manifolds of dimensions 2 to 4
ROUNDTRIP_CORPUS = [
    (fr.cycle(6), 1),
    (fr.cross_polytope(3), 2),
    *[(subdivided(fr.cross_polytope(3), 2, seed), 2) for seed in range(4)],
    (fr.torus_grid(6, 6), 2),
    (subdivided(fr.torus_grid(4, 5), 3, 0), 2),
    (fr.join(fr.cycle(5), suffixed(fr.cycle(5), "'")), 3),
    (fr.cross_polytope(5), 4),
]


@pytest.mark.parametrize("g,n", ROUNDTRIP_CORPUS)
def test_card_recovery_equals_the_edge_list_build(g, n):
    for c in fr.deck(g).cards:
        card = fr.graph_from_canonical_form(c)
        assert fr.reconstruct_from_card(card, n) == edge_list_reconstruct(card, n)
        primed = suffixed(card, "'")
        shuffled = reordered(primed, sorted(primed.labels, reverse=True))  # stored out of order
        assert fr.reconstruct_from_card(shuffled, n) == edge_list_reconstruct(shuffled, n)


def test_reconstruction_attaches_one_fresh_vertex():
    card = fr.vertex_deleted(fr.cycle(5), "0")
    rebuilt = fr.reconstruct_from_card(card, 1)
    new = set(rebuilt.labels) - set(card.labels)
    assert len(new) == 1
    v = new.pop()
    assert set(rebuilt.neighbors(v)) == set(fr.boundary_of(fr.clique_complex(card)))


def test_fresh_label_avoids_collisions():
    card = fr.vertex_deleted(fr.cycle(5), "0").relabel(
        {"1": "*", "2": "b", "3": "c", "4": "d"}
    )
    rebuilt = fr.reconstruct_from_card(card, 1)
    assert "**" in rebuilt.labels
    assert fr.are_isomorphic(rebuilt, fr.cycle(5))


def test_reconstruction_rejects_wrong_dimension():
    card = fr.vertex_deleted(fr.cycle(5), "0")
    with pytest.raises(ValueError, match="^card recovery needs manifold dimension n >= 1$"):
        fr.reconstruct_from_card(card, 0)


@pytest.mark.parametrize(
    "card,n,dim",
    [
        (fr.vertex_deleted(fr.cycle(5), "0"), 2, 1),
        (fr.vertex_deleted(fr.complete(1), "0"), 1, -1),  # the empty card of K1
    ],
)
def test_a_card_below_the_manifold_dimension_is_refused_by_both_dimensions(card, n, dim):
    message = f"the card's clique complex has dimension {dim}, not {n}"
    with pytest.raises(ValueError) as exc:
        fr.reconstruct_from_card(card, n)
    assert str(exc.value) == message


def test_a_card_above_the_manifold_dimension_is_refused_after_the_build():
    # a card of a closed 2-manifold has no K4; the whole clique complex of K7 is built first
    with pytest.raises(ValueError) as exc:
        fr.reconstruct_from_card(fr.complete(7), 2)
    assert str(exc.value) == "the card's clique complex has dimension 6, not 2"


def test_reconstruction_rejects_cards_with_a_bad_pattern():
    bow = fr.Graph.from_edges(
        "01234",
        [("0", "1"), ("0", "2"), ("1", "2"), ("0", "3"), ("0", "4"), ("3", "4")],
    )
    with pytest.raises(fr.BoundaryPatternError):
        fr.reconstruct_from_card(bow, 2)


# -------------------------------------------------------------- enumeration


@cache
def classes(n: int) -> list[fr.Graph]:
    return fr.enumerate_graphs(n)


def test_enumerate_graphs_class_counts():
    # OEIS A000088
    assert [len(classes(n)) for n in range(1, 9)] == [1, 2, 4, 11, 34, 156, 1044, 12346]


def test_enumerate_graphs_returns_distinct_classes():
    for n in range(1, 8):
        reps = classes(n)
        forms = {fr.canonical_form(g) for g in reps}
        assert len(forms) == len(reps)
        assert all(g.vertex_count == n for g in reps)


@pytest.mark.parametrize("n", range(1, 7))
def test_minimum_degree_growth_matches_the_unfiltered_growth(n):
    got = [(g.labels, g.adj) for g in classes(n)]
    assert got == [(g.labels, g.adj) for g in unpruned_enumerate_graphs(n)]


def test_enumerate_graphs_bounds():
    with pytest.raises(ValueError):
        fr.enumerate_graphs(0)
    with pytest.raises(ValueError, match="^enumeration supports 1 <= n <= 8$"):
        fr.enumerate_graphs(9)


def test_enumeration_covers_n4_up_to_isomorphism():
    reps = fr.enumerate_graphs(4)
    labels = ["a", "b", "c", "d"]
    for mask in range(1 << 6):
        edges = []
        k = 0
        for i in range(4):
            for j in range(i + 1, 4):
                if mask >> k & 1:
                    edges.append((labels[i], labels[j]))
                k += 1
        g = fr.Graph.from_edges(labels, edges)
        assert any(fr.are_isomorphic(g, rep) for rep in reps)


# ---------------------------------------------------------------- the oracle


def test_oracle_finds_the_classical_two_vertex_pair():
    groups = fr.brute_force_oracle(fr.enumerate_graphs(2))
    assert len(groups) == 1
    group = groups[0]
    assert len(group) == 2
    assert fr.are_hypomorphic(group[0], group[1]) is not None
    assert not fr.are_isomorphic(group[0], group[1])
    sizes = sorted(g.edge_count for g in group)
    assert sizes == [0, 1]  # 2K_1 and K_2


@pytest.mark.parametrize("n", [1, 3, 4, 5])
def test_oracle_finds_nothing_at_other_small_orders(n):
    assert fr.brute_force_oracle(fr.enumerate_graphs(n)) == []


def test_every_graph_on_eight_vertices_is_determined_by_its_deck():
    # every graph up to order 11 is reconstructible (McKay, 1997)
    assert fr.brute_force_oracle(classes(8)) == []


@pytest.mark.parametrize("n", range(1, 8))
def test_oracle_matches_all_decks_on_every_class(n):
    assert fr.brute_force_oracle(classes(n)) == all_decks_oracle(classes(n))


@given(graphs(min_n=1, max_n=7))
def test_deck_invariant_is_each_cards_degrees_and_triangles(g):
    def triangles(h):
        return sum(
            h.has_edge(a, b) and h.has_edge(a, c) and h.has_edge(b, c)
            for a, b, c in combinations(h.labels, 3)
        )

    cards = [fr.vertex_deleted(g, v) for v in g.labels]
    expected = sorted((tuple(sorted(map(c.degree, c.labels))), triangles(c)) for c in cards)
    assert reconstruction._deck_invariant(g) == tuple(expected)


@st.composite
def lists_with_copies(draw):
    """Shuffled graphs, some stored again in another order or under permuted labels.

    Returns the list and the (original, copy) pairs.
    """
    originals = draw(st.lists(graphs(min_n=1, max_n=6), min_size=1, max_size=6))
    pairs = []
    for g in originals:
        kind = draw(st.sampled_from(["none", "reordered", "relabel"]))
        perm = draw(st.permutations(g.labels))
        if kind == "reordered":
            pairs.append((g, reordered(g, perm)))
        elif kind == "relabel":
            pairs.append((g, g.relabel(dict(zip(g.labels, perm)))))
    items = originals + [copy for _, copy in pairs]
    return [items[i] for i in draw(st.permutations(range(len(items))))], pairs


@given(lists_with_copies())
def test_oracle_matches_all_decks_and_groups_every_copy(data):
    items, pairs = data
    groups = fr.brute_force_oracle(items)
    assert groups == all_decks_oracle(items)
    for g, copy in pairs:
        assert any(any(x is g for x in grp) and any(x is copy for x in grp) for grp in groups)


def test_order_seven_scan_labels_no_card(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(g):
            calls[name] += 1
            return fn(g)

        return wrapper

    monkeypatch.setattr(reconstruction, "canonical_form", counted("canonical_form", fr.canonical_form))
    monkeypatch.setattr(reconstruction, "deck", counted("deck", fr.deck))
    reps = fr.enumerate_graphs(7)
    # the one-vertex seed and 3131 grown candidates; every attachment would be 11 291
    assert calls["canonical_form"] <= 3132
    assert fr.brute_force_oracle(reps) == []
    assert calls["deck"] == 0
    assert len(fr.brute_force_oracle(fr.enumerate_graphs(2))) == 1
    assert calls["deck"] == 2

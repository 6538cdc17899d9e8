"""Graph container, generators, and canonical labelling."""

import random
from collections import defaultdict
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagrecon as fr
from flagrecon.graphs import _cells_of, _certificate, _refine, _search, iter_bits
from oracles import (
    dense_refine,
    graph_on,
    graphs,
    hub,
    iso_bijection,
    packed_certificate,
    reordered,
    small_corpus,
    suffixed,
    symmetric_graphs,
    unpruned_canonical_form,
)


# ---------------------------------------------------------------- container


def test_from_edges_builds_symmetric_adjacency():
    g = fr.Graph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert g.degree("b") == 2
    assert set(g.neighbors("b")) == {"a", "c"}


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        fr.Graph.from_edges(["a", "a"], [])


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        fr.Graph.from_edges(["a", "b"], [("a", "a")])


def test_unknown_endpoint_rejected():
    with pytest.raises(ValueError):
        fr.Graph.from_edges(["a", "b"], [("a", "z")])


def test_asymmetric_adjacency_rejected():
    # raw constructor with a one-directional edge bit
    with pytest.raises(ValueError):
        fr.Graph(("a", "b"), (2, 0))


@pytest.mark.parametrize(
    "adj",
    [
        (0, 0b1, 0),  # a lone bit below the diagonal: 1 -> 0
        (0b10, 0, 0),  # a lone bit above it: 0 -> 1
        (0b10, 0, 0b1),  # mirrored counts, wrong mirrors: 0 -> 1 above, 2 -> 0 below
        (0b100, 0b1, 0),  # 0 -> 2 above, 1 -> 0 below
        (0b10, 0b100, 0b1),  # a directed triangle: 0 -> 1 -> 2 above, 2 -> 0 below
    ],
)
def test_one_way_bits_are_rejected(adj):
    with pytest.raises(ValueError, match="^adjacency must be symmetric$"):
        fr.Graph(("a", "b", "c"), adj)


@given(graphs(min_n=2), st.data())
def test_any_one_way_bit_or_wrongly_mirrored_pair_is_rejected(g, data):
    n = g.vertex_count
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    picked = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2, unique=True))
    if len(picked) == 2 and picked[0] == picked[1][::-1]:
        picked = picked[:1]  # a mirrored pair would toggle one edge and stay symmetric
    adj = list(g.adj)
    for i, j in picked:
        adj[i] ^= 1 << j
    with pytest.raises(ValueError, match="^adjacency must be symmetric$"):
        fr.Graph(g.labels, tuple(adj))


@pytest.mark.parametrize(
    "labels,adj,message",
    [
        (("a", "a"), (0,), "duplicate vertex label"),  # a row short too
        (("a", "b"), (0,), "adjacency row count does not match vertex count"),
        (("a", "b"), (0b100, 0b11), "adjacency bits reference unknown vertices"),  # and a loop
        (("a", "b"), (0b1, 0b100), "self-loop at vertex 'a'"),  # unknown bits in a later row
        (("a", "b", "c"), (0b10, 0, 0b100), "self-loop at vertex 'c'"),  # after a one-way bit
        (("a", "b"), (-1, 0), "adjacency bits reference unknown vertices"),
    ],
)
def test_validation_reports_the_first_fault_in_a_fixed_order(labels, adj, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fr.Graph(labels, adj)


def test_edges_enumerates_each_pair_once():
    g = fr.cycle(4)
    es = list(g.edges())
    assert len(es) == 4
    assert len(set(frozenset(e) for e in es)) == 4


def test_relabel_is_adjacency_preserving():
    g = fr.path(3)
    h = g.relabel({"0": "x", "1": "y", "2": "z"})
    assert h.labels == ("x", "y", "z")
    assert h.has_edge("x", "y") and h.has_edge("y", "z") and not h.has_edge("x", "z")


# ---------------------------------------------------------------- families


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_is_2_regular(n):
    g = fr.cycle(n)
    assert g.vertex_count == n and g.edge_count == n
    assert all(g.degree(v) == 2 for v in g.labels)


def test_cycle_below_3_rejected():
    with pytest.raises(ValueError):
        fr.cycle(2)


@pytest.mark.parametrize("n", range(1, 7))
def test_path_edge_count(n):
    g = fr.path(n)
    assert g.vertex_count == n and g.edge_count == n - 1


@pytest.mark.parametrize("n", range(1, 7))
def test_complete_edge_count(n):
    g = fr.complete(n)
    assert g.edge_count == n * (n - 1) // 2


def test_complete_multipartite_adjacency():
    g = fr.complete_multipartite([2, 3])
    # parts are independent sets, cross pairs all present
    assert g.vertex_count == 5 and g.edge_count == 6
    assert fr.are_isomorphic(g, fr.complement(fr.disjoint_union(
        fr.complete(2), fr.complete(3).relabel({"0": "a", "1": "b", "2": "c"}))))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cross_polytope_counts(k):
    g = fr.cross_polytope(k)
    assert g.vertex_count == 2 * k
    # every vertex misses exactly its antipode
    assert all(g.degree(v) == 2 * k - 2 for v in g.labels)


def test_torus_grid_is_6_regular():
    g = fr.torus_grid(4, 4)
    assert g.vertex_count == 16 and g.edge_count == 48
    assert all(g.degree(v) == 6 for v in g.labels)


def test_torus_grid_below_4_rejected():
    with pytest.raises(ValueError):
        fr.torus_grid(3, 5)


def test_icosahedron_counts():
    g = fr.icosahedron()
    assert g.vertex_count == 12 and g.edge_count == 30
    assert all(g.degree(v) == 5 for v in g.labels)


def test_generate_dispatch():
    assert fr.are_isomorphic(fr.generate("cycle", [5]), fr.cycle(5))
    assert fr.are_isomorphic(fr.generate("icosahedron"), fr.icosahedron())
    assert fr.are_isomorphic(
        fr.generate("complete_multipartite", [2, 2, 2]), fr.cross_polytope(3)
    )
    with pytest.raises(ValueError):
        fr.generate("hypercube", [3])


# ---------------------------------------------------------------- operations


@given(graphs(max_n=7))
def test_complement_is_an_involution(g):
    assert fr.complement(fr.complement(g)) == g


def test_complement_of_complete_is_edgeless():
    assert fr.complement(fr.complete(4)).edge_count == 0


def test_join_of_two_edgeless_pairs_is_c4():
    a = fr.Graph.from_edges(["a0", "a1"], [])
    b = fr.Graph.from_edges(["b0", "b1"], [])
    assert fr.are_isomorphic(fr.join(a, b), fr.cycle(4))


def test_join_c4_k1_is_the_wheel_card_of_k222():
    wheel = fr.join(fr.cycle(4), hub())
    card = fr.vertex_deleted(fr.cross_polytope(3), fr.cross_polytope(3).labels[0])
    assert fr.are_isomorphic(wheel, card)


def test_join_c4_2k1_is_k222():
    g = fr.join(fr.cycle(4), fr.Graph.from_edges(["x", "y"], []))
    assert g.edge_count == 12
    assert fr.are_isomorphic(g, fr.cross_polytope(3))


def test_join_rejects_label_collision():
    with pytest.raises(ValueError):
        fr.join(fr.cycle(4), fr.complete(1))


@given(graphs(max_n=4), graphs(max_n=4))
def test_complement_of_join_is_disjoint_union_of_complements(g1, g2):
    g2 = g2.relabel({v: "w" + v for v in g2.labels})
    lhs = fr.complement(fr.join(g1, g2))
    rhs = fr.disjoint_union(fr.complement(g1), fr.complement(g2))
    assert lhs == rhs


@given(graphs(max_n=7), st.data())
def test_full_subgraph_is_functorial(g, data):
    t = data.draw(st.sets(st.sampled_from(g.labels)))
    u = data.draw(st.sets(st.sampled_from(sorted(t))) if t else st.just(set()))
    direct = fr.full_subgraph(g, u)
    staged = fr.full_subgraph(fr.full_subgraph(g, t), u)
    assert direct == staged


@given(st.one_of(graphs(), symmetric_graphs()))
def test_vertex_deleted_is_the_full_subgraph_on_the_other_vertices(g):
    for v in g.labels:
        card = fr.vertex_deleted(g, v)
        oracle = fr.full_subgraph(g, [u for u in g.labels if u != v])
        assert (card.labels, card.adj) == (oracle.labels, oracle.adj)


def test_vertex_deleted_rejects_an_unknown_vertex():
    with pytest.raises(ValueError, match="unknown vertex 'x'"):
        fr.vertex_deleted(fr.cycle(4), "x")


def test_vertex_deleted_cycle_is_path():
    assert fr.are_isomorphic(fr.vertex_deleted(fr.cycle(5), "2"), fr.path(4))


def test_vertex_deleted_k2_is_k1():
    assert fr.vertex_deleted(fr.complete(2), "0").vertex_count == 1


def test_is_connected():
    assert fr.is_connected(fr.path(4))
    assert fr.is_connected(fr.complete(1))
    assert not fr.is_connected(fr.disjoint_union(fr.cycle(3), fr.path(2).relabel({"0": "a", "1": "b"})))
    with pytest.raises(ValueError):
        fr.is_connected(fr.Graph((), ()))


def test_disjoint_union_rejects_label_collision():
    with pytest.raises(ValueError):
        fr.disjoint_union(fr.cycle(3), fr.path(3))


# ------------------------------------------------------- canonical labelling


def test_canonical_form_exhaustive_n4_matches_permutation_oracle():
    """Equal form <=> the 4! sweep finds a bijection, over all 64 graph pairs."""
    labels = ["a", "b", "c", "d"]
    all_graphs = [graph_on(labels, m) for m in range(1 << 6)]
    forms = [fr.canonical_form(g) for g in all_graphs]
    for (g1, f1), (g2, f2) in combinations(zip(all_graphs, forms), 2):
        assert (f1 == f2) == (iso_bijection(g1, g2) is not None)


def test_canonical_form_partitions_n5_into_34_classes():
    labels = [f"v{i}" for i in range(5)]
    buckets = defaultdict(list)
    for mask in range(1 << 10):
        g = graph_on(labels, mask)
        buckets[fr.canonical_form(g)].append(g)
    assert len(buckets) == 34
    # class sizes add back up to the full sweep
    assert sum(len(b) for b in buckets.values()) == 1 << 10
    # spot-check one bucket: members really are pairwise isomorphic
    biggest = max(buckets.values(), key=len)
    g0 = biggest[0]
    assert all(iso_bijection(g0, g) is not None for g in biggest[:12])


@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_canonical_form_is_relabelling_invariant(g, rng):
    shuffled = list(g.labels)
    rng.shuffle(shuffled)
    h = g.relabel(dict(zip(g.labels, shuffled)))
    assert fr.canonical_form(h) == fr.canonical_form(g)


@given(graphs(max_n=7))
def test_canonical_form_round_trips_through_decode(g):
    cert = fr.canonical_form(g)
    rebuilt = fr.graph_from_canonical_form(cert)
    assert fr.canonical_form(rebuilt) == cert
    assert rebuilt.vertex_count == g.vertex_count
    assert rebuilt.edge_count == g.edge_count


@given(graphs(min_n=2, max_n=6), st.data())
def test_are_isomorphic_matches_oracle_on_perturbed_pairs(g, data):
    if data.draw(st.booleans()):
        # genuine isomorph: permuted labels
        perm = data.draw(st.permutations(g.labels))
        h = g.relabel(dict(zip(g.labels, perm)))
    else:
        # toggle one pair, usually breaking isomorphism
        u, v = data.draw(st.sampled_from(list(combinations(g.labels, 2))))
        edges = set(frozenset(e) for e in g.edges())
        edges ^= {frozenset((u, v))}
        h = fr.Graph.from_edges(g.labels, [tuple(sorted(e)) for e in edges])
    assert fr.are_isomorphic(g, h) == (iso_bijection(g, h) is not None)


@pytest.mark.parametrize("name,g", small_corpus())
def test_corpus_survives_canonical_round_trip(name, g):
    cert = fr.canonical_form(g)
    assert fr.canonical_form(fr.graph_from_canonical_form(cert)) == cert


def test_canonical_form_shape():
    # vertex count prefix, then packed column-major triangle bits
    cert = fr.canonical_form(fr.complete(3))
    assert cert == b"3:" + bytes([0b111 << 5])


@pytest.mark.parametrize(
    "cert", [b"5:", b"-1:", b"3:\xff\xff", b"3:\xff", b"x:", b"3"], ids=repr
)
def test_malformed_certificates_are_rejected(cert):
    with pytest.raises(ValueError, match="malformed certificate"):
        fr.graph_from_canonical_form(cert)
    with pytest.raises(ValueError, match="malformed certificate"):
        fr.graph6_from_canonical_form(cert)


def test_a_set_padding_bit_is_a_malformed_certificate():
    # the triangle's 3 bits fill the top of the byte; the 5 below are padding
    assert fr.graph6_from_canonical_form(b"3:" + bytes([0b111 << 5])) == "Bw"  # K3
    for bit in range(5):
        cert = b"3:" + bytes([0b111 << 5 | 1 << bit])
        with pytest.raises(ValueError, match="malformed certificate"):
            fr.graph6_from_canonical_form(cert)


# orders whose n(n-1)/2 triangle bits fill whole bytes of 6 bits (4, 9), of 8 (17),
# of both (0, 1, 16), or of neither
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 23, 33, 62])
def test_a_certificates_graph6_is_that_of_its_decoded_graph(n):
    rng = random.Random(n)
    for p in (0.0, 0.3, 0.7, 1.0):
        mask = sum(1 << k for k in range(n * (n - 1) // 2) if rng.random() < p)
        assert_graph6_is_that_of_the_decoded_graph(graph_on([str(i) for i in range(n)], mask))


@given(st.one_of(graphs(max_n=13), symmetric_graphs()))
def test_a_certificates_graph6_is_that_of_its_decoded_graph_on_random_graphs(g):
    assert_graph6_is_that_of_the_decoded_graph(g)


def assert_graph6_is_that_of_the_decoded_graph(g):
    cert = fr.canonical_form(g)
    assert fr.graph6_from_canonical_form(cert) == fr.emit_graph6(fr.graph_from_canonical_form(cert))


def test_a_certificate_above_62_vertices_has_no_graph6():
    with pytest.raises(fr.FormatError, match="at most 62 vertices"):
        fr.graph6_from_canonical_form(fr.canonical_form(fr.path(63)))


# ------------------------------------------------- pruned search vs. oracle


@given(graphs())
def test_canonical_form_matches_unpruned_search(g):
    assert fr.canonical_form(g) == unpruned_canonical_form(g)


@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_canonical_form_matches_unpruned_search_in_any_vertex_order(g, rng):
    order = list(g.labels)
    rng.shuffle(order)
    h = reordered(g, order)
    assert fr.canonical_form(h) == unpruned_canonical_form(h) == fr.canonical_form(g)


@settings(max_examples=40)
@given(symmetric_graphs())
def test_canonical_form_matches_unpruned_search_on_symmetric_graphs(g):
    assert fr.canonical_form(g) == unpruned_canonical_form(g)


@pytest.mark.parametrize("swapped", [False, True], ids=["torus_first", "cross_polytope_first"])
def test_pruning_uses_only_automorphisms_fixing_the_prefix(swapped):
    """A union of two symmetric parts, where pruning with automorphisms that
    move the individualised prefix skips the branch holding the least
    certificate in some vertex orders.  |Aut| = 192 * 384, too many leaves
    for the unpruned oracle, so the orders are checked against each other."""
    parts = [fr.torus_grid(4, 4), suffixed(fr.cross_polytope(4), "'")]
    g = fr.disjoint_union(*(parts[::-1] if swapped else parts))
    rng = random.Random(20101)
    certs = set()
    for _ in range(40):
        order = list(g.labels)
        rng.shuffle(order)
        certs.add(fr.canonical_form(reordered(g, order)))
    assert len(certs) == 1


# ------------------------------------------- cell-wise refinement vs. oracle


@st.composite
def branched_colourings(draw):
    """A graph with a colouring shaped like the ones branching makes.

    Colours are doubled, which leaves gaps, and one vertex may then drop by
    one: the individualised vertex, at -1 when its colour was 0.
    """
    g = draw(st.one_of(graphs(), symmetric_graphs()))
    n = g.vertex_count
    colors = [2 * c for c in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
    if draw(st.booleans()):
        colors[draw(st.integers(0, n - 1))] -= 1
    return g, colors


def neighbour_lists(g):
    return [list(iter_bits(row)) for row in g.adj]


@settings(max_examples=200)
@given(branched_colourings())
def test_cellwise_refinement_matches_the_dense_oracle(case):
    g, colors = case
    expected = dense_refine(g.vertex_count, g.adj, colors)
    assert _refine(neighbour_lists(g), colors) == (expected, _cells_of(expected))


def test_colour_minus_one_counts_towards_the_highest_colour():
    # on the 4-cycle 0-1-2-3 with vertex 0 individualised at -1, the first
    # round leaves the other three alike, since each counts -1 and 0 as one
    # colour; the second round splits off vertex 2, opposite vertex 0
    g = fr.cycle(4)
    colors = [-1, 0, 0, 0]
    refined = dense_refine(4, g.adj, colors)
    assert refined == [0, 2, 1, 2]
    assert _refine(neighbour_lists(g), colors) == (refined, [[0], [2], [1, 3]])


@settings(max_examples=40)
@given(st.one_of(graphs(), symmetric_graphs()))
def test_search_with_the_dense_oracle_finds_the_same_labelling_and_orbits(g):
    def dense(nbrs, colors):
        adj = [sum(1 << u for u in row) for row in nbrs]
        refined = dense_refine(len(nbrs), adj, colors)
        return refined, _cells_of(refined)

    cert, autos = _search(g)
    with mock.patch.object(fr.graphs, "_refine", dense):
        assert _search(g) == (cert, autos)


@given(graphs(), st.randoms(use_true_random=False))
def test_certificate_packing_matches_the_bitwise_oracle(g, rng):
    order = list(range(g.vertex_count))
    rng.shuffle(order)
    expected = packed_certificate(g.vertex_count, g.adj, order)
    assert _certificate(neighbour_lists(g), order) == expected


# ------------------------------------------------------------ vertex orbits


@given(st.one_of(graphs(), symmetric_graphs()))
def test_vertices_of_one_orbit_have_isomorphic_cards(g):
    orbits = fr.vertex_orbits(g)
    assert sorted(v for orbit in orbits for v in orbit) == sorted(g.labels)
    for orbit in orbits:
        cards = {fr.canonical_form(fr.vertex_deleted(g, v)) for v in orbit}
        assert len(cards) == 1


C5 = fr.cycle(5)


@pytest.mark.parametrize(
    "g",
    [fr.cycle(9), fr.torus_grid(6, 6), fr.cross_polytope(5), fr.icosahedron(),
     fr.join(C5, suffixed(C5, "'"))],
    ids=["C9", "torus66", "cross_polytope5", "icosahedron", "C5*C5"],
)
def test_vertex_transitive_graphs_have_one_orbit(g):
    assert fr.vertex_orbits(g) == [g.labels]


def test_path5_has_three_orbits():
    assert fr.vertex_orbits(fr.path(5)) == [("0", "4"), ("1", "3"), ("2",)]


# ------------------------------------------------ search nodes and budget


@pytest.fixture
def search_nodes(monkeypatch):
    """Count search-tree nodes (one refinement each)."""
    count = [0]
    refine = fr.graphs._refine

    def counted(*args):
        count[0] += 1
        return refine(*args)

    monkeypatch.setattr(fr.graphs, "_refine", counted)
    return count


def test_torus_grid_8x8_labelling_is_pruned(search_nodes):
    fr.canonical_form(fr.torus_grid(8, 8))
    assert search_nodes[0] <= 100


def test_cross_polytope_5_deck_is_pruned(search_nodes):
    fr.deck(fr.cross_polytope(5))
    assert search_nodes[0] <= 200


def test_node_budget_fails_loudly(monkeypatch):
    monkeypatch.setattr(fr.graphs, "SEARCH_NODE_BUDGET", 3)
    with pytest.raises(ValueError, match="6-vertex graph"):
        fr.canonical_form(fr.cross_polytope(3))

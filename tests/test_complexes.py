"""Flag complexes, links, and full subcomplexes."""

import dataclasses
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flagrecon as fr
from flagrecon import complexes
from flagrecon.graphs import iter_bits
from oracles import (
    brute_maximal_cliques,
    corpus_complexes,
    face_list_complexes,
    graphs,
    hub,
    projective_plane,
    reclosed_full_subcomplex,
    reclosed_link,
    reordered,
    small_corpus,
)


def hollow_tetrahedron():
    """Boundary of the 3-simplex: not flag (its skeleton is K_4)."""
    return fr.build_complex("abcd", [list(t) for t in combinations("abcd", 3)])


# ------------------------------------------------------------ construction


def test_build_complex_closes_downward():
    L = fr.build_complex(["a", "b", "c"], [["a", "b", "c"]])
    assert fr.f_vector(L) == (3, 3, 1)
    assert L.has_simplex(["a", "c"])
    assert ("a",) in L


def test_build_complex_rejects_unknown_vertex():
    with pytest.raises(ValueError):
        fr.build_complex(["a", "b"], [["a", "z"]])


def test_build_complex_rejects_repeated_vertex_in_face():
    with pytest.raises(ValueError):
        fr.build_complex(["a", "b"], [["a", "a"]])


def test_every_label_becomes_a_vertex():
    L = fr.build_complex(["a", "b", "c"], [["a", "b"]])
    assert fr.f_vector(L) == (3, 1)


def test_simplex_normalises_input_order():
    L = fr.build_complex(["a", "b", "c"], [["a", "b", "c"]])
    assert L.simplex(["c", "a"]) == L.simplex(["a", "c"])
    assert L.has_simplex(["c", "b", "a"])
    assert not L.has_simplex(["a", "z"])  # unknown vertex is just absent


# ----------------------------------------------------------- clique complex


@pytest.mark.parametrize(
    "g,expected_f",
    [
        (fr.cycle(5), (5, 5)),
        (fr.cross_polytope(3), (6, 12, 8)),
        (fr.complete(4), (4, 6, 4, 1)),
        (fr.torus_grid(4, 4), (16, 48, 32)),
        (fr.path(4), (4, 3)),
    ],
)
def test_clique_complex_f_vectors(g, expected_f):
    assert fr.f_vector(fr.clique_complex(g)) == expected_f


def test_clique_complex_of_empty_graph():
    L = fr.clique_complex(fr.Graph((), ()))
    assert L.dimension == -1
    assert fr.f_vector(L) == ()


@given(graphs(max_n=9).flatmap(lambda g: st.permutations(g.labels).map(lambda o: reordered(g, o))))
@example(fr.Graph((), ()))
@example(fr.Graph.from_edges("abc", []))
@example(fr.torus_grid(5, 5))
@example(fr.cross_polytope(4))
@example(fr.icosahedron())
def test_maximal_cliques_match_subset_sweep(g):
    L = fr.clique_complex(g)
    maximal = brute_maximal_cliques(g)
    assert {frozenset(s) for s in fr.maximal_simplices(L)} == set(maximal)
    # the level-by-level build equals the downward re-closure, storage order included
    closed = fr.build_complex(g.labels, maximal)
    assert (L.labels, L.simplices) == (closed.labels, closed.simplices)


@given(graphs(max_n=8))
def test_clique_complex_is_flag(g):
    assert fr.is_flag(fr.clique_complex(g))


def test_hollow_tetrahedron_is_not_flag():
    assert not fr.is_flag(hollow_tetrahedron())


@given(graphs(max_n=8), st.integers(1, 4))
@example(fr.complete(5), 2)
def test_card_recovery_refuses_cliques_past_the_dimension(g, n):
    clique_number = max(map(len, brute_maximal_cliques(g)), default=0)
    if clique_number > n + 1:
        # the whole clique complex is built, then its dimension is checked
        with pytest.raises(ValueError) as exc:
            fr.reconstruct_from_card(g, n)
        message = f"the card's clique complex has dimension {clique_number - 1}, not {n}"
        assert str(exc.value) == message


@pytest.mark.parametrize("k", [17, 20, 62])
def test_card_recovery_past_the_face_budget_is_refused_by_it(k):
    # no dimension cap stops the build early: the face budget does
    with pytest.raises(ValueError, match=" is over MAX_FACES = 65536$"):
        fr.reconstruct_from_card(fr.complete(k), 2)


def test_the_face_budget_admits_complete_16_and_refuses_complete_17():
    assert fr.MAX_FACES == 65536
    assert sum(fr.f_vector(fr.clique_complex(fr.complete(16)))) == 65535
    # levels 0-7 of K17 hold 65 535 faces; the 24 310 of level 8 are counted, never built
    over = "^complex of 89845 faces or more is over MAX_FACES = 65536$"
    with pytest.raises(ValueError, match=over):
        fr.clique_complex(fr.complete(17))


def test_the_level_over_the_budget_is_never_built(monkeypatch):
    extended = []  # the up-sets that the next level's cliques are read from
    monkeypatch.setattr(complexes, "iter_bits", lambda up: extended.append(up) or iter_bits(up))
    monkeypatch.setattr(complexes, "MAX_FACES", 14)
    with pytest.raises(ValueError, match="^complex of 15 faces or more "):
        fr.clique_complex(fr.complete(4))
    assert len(extended) == 4 + 6  # the vertices' and the edges'; no triangle is extended


@pytest.mark.parametrize(
    "g,budget,faces",
    [
        (fr.cycle(5), 10, None),  # 5 vertices and 5 edges: exactly the budget
        (fr.cycle(6), 11, 12),
        (fr.complete(4), 15, None),  # one face more, the tetrahedron, is refused above
    ],
)
def test_a_tiny_face_budget_refuses_the_level_that_passes_it(monkeypatch, g, budget, faces):
    monkeypatch.setattr(complexes, "MAX_FACES", budget)
    if faces is None:
        assert sum(fr.f_vector(fr.clique_complex(g))) <= budget
    else:
        over = f"^complex of {faces} faces or more is over MAX_FACES = {budget}$"
        with pytest.raises(ValueError, match=over):
            fr.clique_complex(g)


@given(graphs(max_n=8))
def test_one_skeleton_recovers_the_graph(g):
    assert fr.one_skeleton(fr.clique_complex(g)) == g


# ------------------------------------------------- subcomplexes and links


@given(graphs(max_n=7), st.data())
def test_full_subcomplex_of_flag_is_flag(g, data):
    t = data.draw(st.sets(st.sampled_from(g.labels)))
    sub = fr.full_subcomplex(fr.clique_complex(g), t)
    assert fr.is_flag(sub)
    flag = fr.clique_complex(fr.full_subgraph(g, t))
    assert sub == flag and sub.rows == flag.rows
    assert sub.neighbourhoods == flag.neighbourhoods  # both filled in by clique_complex


@given(graphs(min_n=0, max_n=8))
def test_neighbourhoods_are_the_common_neighbours_in_storage_order(g):
    L = fr.clique_complex(g)
    row = dict(zip(g.labels, g.adj))
    common = [[reduce(int.__and__, map(row.get, s)) for s in level] for level in L.simplices]
    assert L.neighbourhoods == common
    assert fr.full_subcomplex(L, g.labels).neighbourhoods == common


def test_rows_come_only_from_the_flag_complexes_this_module_makes():
    # rows choose the flag walk, so the rows of another complex cannot be handed in or carried over
    rp2 = projective_plane()
    simplex = fr.clique_complex(fr.one_skeleton(rp2))  # the 5-simplex on the same 6 vertices
    with pytest.raises(TypeError):
        fr.SimplicialComplex(rp2.simplices, simplex.rows)
    copy = dataclasses.replace(simplex, simplices=rp2.simplices)
    assert copy.rows is None and copy.neighbourhoods is None
    assert fr.is_homology_manifold(copy) == fr.is_homology_manifold(rp2)
    assert fr.is_homology_manifold(copy).is_manifold


def test_full_subcomplex_keeps_only_inside_faces():
    L = fr.clique_complex(fr.complete(4))
    sub = fr.full_subcomplex(L, ["0", "1", "2"])
    assert fr.f_vector(sub) == (3, 3, 1)


@pytest.mark.parametrize("name,g", small_corpus())
def test_vertex_link_is_full_subcomplex_on_neighbours(name, g):
    L = fr.clique_complex(g)
    for v in g.labels:
        lk = fr.link(L, [v])
        assert lk == fr.full_subcomplex(L, g.neighbors(v))


@pytest.mark.parametrize("name,g", small_corpus())
def test_link_matches_definition(name, g):
    """Brute force: tau in lk(sigma) iff tau is disjoint from sigma and
    tau union sigma is a face."""
    L = fr.clique_complex(g)
    for level in L.simplices:
        for sigma in level:
            lk = fr.link(L, sigma)
            expected = set()
            for lv in L.simplices:
                for tau in lv:
                    if not set(tau) & set(sigma) and L.has_simplex(set(tau) | set(sigma)):
                        expected.add(tau)
            got = {s for lv in lk.simplices for s in lv}
            assert got == expected


def test_link_of_octahedron_vertex_is_a_4_cycle():
    g = fr.cross_polytope(3)
    L = fr.clique_complex(g)
    lk = fr.link(L, [g.labels[0]])
    assert fr.are_isomorphic(fr.one_skeleton(lk), fr.cycle(4))
    assert lk.dimension == 1


def test_link_of_octahedron_edge_is_two_points():
    g = fr.cross_polytope(3)
    L = fr.clique_complex(g)
    edge = next(iter(g.edges()))
    lk = fr.link(L, edge)
    assert fr.f_vector(lk) == (2,)


def test_link_of_facet_is_empty_complex():
    L = fr.clique_complex(fr.cycle(4))
    lk = fr.link(L, ["0", "1"])
    assert lk.vertex_count == 0
    assert lk.dimension == -1


def test_link_of_missing_simplex_rejected():
    L = fr.clique_complex(fr.cycle(4))
    with pytest.raises(ValueError):
        fr.link(L, ["0", "2"])


# ------------------------------------ filtered levels vs. re-closed faces


def stored(L):
    return L.labels, L.simplices


def assert_links_and_subcomplexes_match_reclosure(L, subsets):
    for level in L.simplices:
        for sigma in level:
            assert stored(fr.link(L, sigma)) == stored(reclosed_link(L, sigma))
    for t in subsets:
        assert stored(fr.full_subcomplex(L, t)) == stored(reclosed_full_subcomplex(L, t))


@given(graphs(max_n=9), st.data())
def test_filtered_levels_match_reclosure_on_flag_complexes(g, data):
    # a drawn storage order, so position order differs from label order
    g = reordered(g, data.draw(st.permutations(g.labels)))
    subsets = data.draw(st.lists(st.sets(st.sampled_from(g.labels)), max_size=4))
    assert_links_and_subcomplexes_match_reclosure(fr.clique_complex(g), subsets)


@given(face_list_complexes(), st.data())
def test_filtered_levels_match_reclosure_on_face_lists(L, data):
    subsets = data.draw(st.lists(st.sets(st.sampled_from(L.labels)), max_size=4))
    assert_links_and_subcomplexes_match_reclosure(L, subsets)


@pytest.mark.parametrize("name,L", corpus_complexes())
def test_filtered_levels_match_reclosure_on_the_corpus(name, L):
    labels = list(L.labels)
    assert_links_and_subcomplexes_match_reclosure(L, [labels[::2], labels[1::3]])


def test_filtered_levels_edge_cases():
    # a tetrahedron with a tail: d-e-f is a path leaving it, g is isolated
    L = fr.build_complex("gfedcba", ["abcd", "de", "ef"])
    cases = {
        ("a", "b", "c", "d"): (),  # facet
        ("d", "e"): (),  # maximal edge below the top level
        ("e",): ("f", "d"),  # level 2 exists, but holds no coface of e
        ("g",): (),  # isolated vertex
        ("d",): ("e", "c", "b", "a"),  # storage order, not label order
    }
    for sigma, vertices in cases.items():
        assert fr.link(L, sigma).labels == vertices
    assert fr.f_vector(fr.link(L, "d")) == (4, 3, 1)
    assert stored(fr.full_subcomplex(L, [])) == ((), ())
    assert stored(fr.full_subcomplex(L, L.labels)) == stored(L)
    assert_links_and_subcomplexes_match_reclosure(L, [[], L.labels, "fed", "g"])
    with pytest.raises(ValueError, match="unknown vertex"):
        fr.full_subcomplex(L, ["a", "z"])
    with pytest.raises(ValueError, match="unknown vertex"):
        fr.link(L, ["z"])
    with pytest.raises(ValueError, match="not a simplex"):
        fr.link(L, ["a", "e"])


# ---------------------------------------------- all links of a level at once


def assert_links_match_link(L):
    for k in range(L.dimension + 2):
        expected = [stored(reclosed_link(L, sigma)) for sigma in L.faces(k)]
        assert [stored(lk) for lk in fr.links(L, k)] == expected


@given(graphs(max_n=9), st.data())
def test_links_match_link_on_flag_complexes(g, data):
    g = reordered(g, data.draw(st.permutations(g.labels)))
    assert_links_match_link(fr.clique_complex(g))


@given(face_list_complexes())
def test_links_match_link_on_face_lists(L):
    assert_links_match_link(L)


@pytest.mark.parametrize("name,L", corpus_complexes())
def test_links_match_link_on_the_corpus(name, L):
    assert_links_match_link(L)


def test_links_edge_cases():
    L = fr.build_complex("gfedcba", ["abcd", "de", "ef"])
    assert_links_match_link(L)
    assert [stored(lk) for lk in fr.links(L, 3)] == [((), ())]  # k = dim: facets
    octahedron = fr.clique_complex(fr.cross_polytope(3))
    assert [stored(lk) for lk in fr.links(octahedron, 2)] == [((), ())] * 8
    assert fr.links(L, 4) == [] and fr.links(L, -1) == []
    assert [lk.labels for lk in fr.links(L, 0)][2:4] == [("f", "d"), ("e", "c", "b", "a")]
    assert fr.links(fr.build_complex([], []), 0) == []


# --------------------------------------------------------- join behaviour


@settings(max_examples=25)
@given(graphs(max_n=4), graphs(max_n=4))
def test_clique_complex_of_join_is_the_join_of_complexes(g1, g2):
    g2 = g2.relabel({v: "w" + v for v in g2.labels})
    L = fr.clique_complex(fr.join(g1, g2))
    faces1 = [set()] + [set(s) for lv in fr.clique_complex(g1).simplices for s in lv]
    faces2 = [set()] + [set(s) for lv in fr.clique_complex(g2).simplices for s in lv]
    expected = {
        frozenset(a | b) for a in faces1 for b in faces2 if a or b
    }
    got = {frozenset(s) for lv in L.simplices for s in lv}
    assert got == expected


# ------------------------------------------------------ numerical summaries


@pytest.mark.parametrize(
    "L,chi",
    [
        (fr.clique_complex(fr.complete(1)), 1),
        (fr.clique_complex(fr.cycle(6)), 0),
        (fr.clique_complex(fr.cross_polytope(3)), 2),
        (fr.clique_complex(fr.torus_grid(4, 4)), 0),
        (fr.clique_complex(fr.complete(4)), 1),
        (fr.clique_complex(fr.Graph((), ())), 0),
        (hollow_tetrahedron(), 2),
    ],
)
def test_euler_characteristic(L, chi):
    assert fr.euler_characteristic(L) == chi


def test_faces_out_of_range_is_empty():
    L = fr.clique_complex(fr.cycle(4))
    assert L.faces(5) == ()
    assert L.faces(-1) == ()

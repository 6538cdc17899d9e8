"""Nerve-side dictionary for right-angled systems: finiteness,
irreducibility, duality, and the cohomology vanishing condition."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagrecon as fr
from flagrecon.graphs import _dismantled, iter_bits
from oracles import (
    adjacency_dismantled,
    brute_condition3_failures,
    graphs,
    hub,
    join_split,
    reordered,
    small_corpus,
    subdivided,
    undismantled_complement_cohomologies,
    undismantled_condition3_vanishing,
)


def system(g):
    return fr.NerveSystem.from_graph(g)


def named_systems():
    return [(name, system(g)) for name, g in small_corpus()]


def sweep_systems():
    """The named systems, complete graphs, cones over the named graphs, the
    join of two pentagons, a subdivided icosahedron (disc cores), a
    subdivided torus (a punctured torus at the first subset) and a long
    cycle (path remainders): remainders that dismantle to a point, to
    several points, to cores bigger than a point and not at all."""
    c5 = fr.cycle(5)
    cases = small_corpus()
    cases += [(f"K{k}", fr.complete(k)) for k in range(1, 10)]
    cases += [(f"cone_{name}", fr.join(g, hub("apex"))) for name, g in small_corpus()]
    cases.append(("C5*C5", fr.join(c5, c5.relabel({v: f"b{v}" for v in c5.labels}))))
    cases.append(("sd_icosahedron", subdivided(fr.icosahedron(), 6, 1)))
    cases.append(("sd_torus_4x4", subdivided(fr.torus_grid(4, 4), 4, 3)))
    cases.append(("C40", fr.cycle(40)))
    return [(name, system(g)) for name, g in cases]


# ------------------------------------------------------------------ basics


@pytest.mark.parametrize("name,g", small_corpus())
def test_the_nerve_is_the_graphs_clique_complex(name, g):
    assert fr.NerveSystem(g).nerve == fr.clique_complex(g)


def test_a_passed_nerve_is_a_type_error():
    g = fr.cycle(5)
    with pytest.raises(TypeError):
        fr.NerveSystem(g, fr.clique_complex(g))


def test_no_dimension_cap_is_taken():
    # the graph fixes the nerve's dimension; the face budget bounds the build
    g = fr.complete(3)
    with pytest.raises(TypeError):
        fr.NerveSystem(g, max_dim=1)
    with pytest.raises(TypeError):
        fr.NerveSystem.from_graph(g, 1)
    with pytest.raises(TypeError):
        fr.certify_reconstructible(g, 2)


def test_from_graph_builds_the_clique_complex():
    ns = system(fr.cross_polytope(3))
    assert ns.nerve == fr.clique_complex(ns.graph)


def test_is_spherical_iff_clique():
    ns = system(fr.cycle(4))
    assert fr.is_spherical(ns, [])  # the trivial subgroup is finite
    assert fr.is_spherical(ns, ["0"])
    assert fr.is_spherical(ns, ["0", "1"])
    assert not fr.is_spherical(ns, ["0", "2"])  # diagonal pair
    with pytest.raises(ValueError):
        fr.is_spherical(ns, ["0", "0"])
    with pytest.raises(ValueError):
        fr.is_spherical(ns, ["z"])
    with pytest.raises(ValueError, match="unknown vertex 'z'"):  # before the repeat
        fr.is_spherical(ns, ["0", "0", "z"])


def test_is_spherical_builds_no_face_set():
    # a clique test on the graph's rows: the nerve's set of every face is never made
    ns = system(fr.cross_polytope(3))
    for size in range(ns.graph.vertex_count + 1):
        for t in combinations(ns.graph.labels, size):
            fr.is_spherical(ns, t)
    assert "_face_set" not in vars(ns.nerve)


@pytest.mark.parametrize("name,ns", named_systems())
def test_is_spherical_matches_pairwise_adjacency(name, ns):
    """Dictionary consistency over every subset of at most 4 vertices."""
    g = ns.graph
    for size in range(1, 5):
        for t in combinations(g.labels, size):
            clique = all(g.has_edge(u, v) for u, v in combinations(t, 2))
            assert fr.is_spherical(ns, t) == clique


def test_spherical_subsets_enumerates_nonempty_cliques():
    ns = system(fr.cycle(5))
    subsets = fr.spherical_subsets(ns)
    assert len(subsets) == 10  # 5 vertices + 5 edges
    assert all(fr.is_spherical(ns, t) for t in subsets)


def test_is_finite_group_iff_complete():
    assert fr.is_finite_group(system(fr.complete(4)))
    assert fr.is_finite_group(system(fr.complete(1)))
    assert not fr.is_finite_group(system(fr.cycle(5)))
    with pytest.raises(ValueError):
        fr.is_finite_group(fr.NerveSystem.from_graph(fr.Graph((), ())))


# ---------------------------------------------------------- irreducibility


@pytest.mark.parametrize(
    "g,expected",
    [
        (fr.cycle(4), False),  # K_{2,2} is a join of its diagonals
        (fr.cycle(5), True),
        (fr.cycle(6), True),
        (fr.cross_polytope(3), False),
        (fr.complete(2), False),
        (fr.torus_grid(4, 4), True),
        (fr.icosahedron(), True),
    ],
)
def test_is_irreducible_known_cases(g, expected):
    assert fr.is_irreducible(system(g)) == expected


@given(graphs())
def test_irreducibility_on_bitsets_matches_the_built_complement(g):
    assert fr.is_irreducible(system(g)) == fr.is_connected(fr.complement(g))


@given(graphs(min_n=2, max_n=8))
def test_reducible_means_a_join_splitting_exists(g):
    assert (not fr.is_irreducible(system(g))) == (join_split(g) is not None)


def test_join_decomposition_peels_universal_vertices():
    w = fr.join(fr.cycle(4), hub())
    core, factor = fr.join_decomposition(system(w))
    assert set(factor) == {"h"}
    assert set(core) == {"0", "1", "2", "3"}


def test_join_decomposition_of_complete_graph_peels_everything():
    core, factor = fr.join_decomposition(system(fr.complete(3)))
    assert core == ()
    assert set(factor) == {"0", "1", "2"}


def test_join_decomposition_without_universal_vertices_is_trivial():
    core, factor = fr.join_decomposition(system(fr.cross_polytope(3)))
    assert factor == ()
    assert len(core) == 6


# ------------------------------------------------------------------ duality


@pytest.mark.parametrize(
    "g,dim",
    [
        (fr.cycle(4), 2),
        (fr.cycle(5), 2),
        (fr.cycle(9), 2),
        (fr.cross_polytope(3), 3),
        (fr.join(fr.cycle(5), hub()), 2),
    ],
)
def test_virtual_pd_dimensions(g, dim):
    verdict = fr.is_virtual_pd(system(g))
    assert verdict.is_vpd and verdict.dimension == dim
    assert not verdict.degenerate


def test_virtual_pd_peels_the_hub():
    verdict = fr.is_virtual_pd(system(fr.join(fr.cycle(5), hub())))
    assert set(verdict.spherical_factor) == {"h"}
    assert verdict.core_sphere.is_sphere and verdict.core_sphere.dimension == 1


def test_complete_graphs_are_degenerate_dimension_zero():
    verdict = fr.is_virtual_pd(system(fr.complete(4)))
    assert verdict.is_vpd and verdict.dimension == 0 and verdict.degenerate
    assert verdict.core == ()
    assert verdict.core_sphere.dimension == -1


@pytest.mark.parametrize(
    "g",
    [
        fr.torus_grid(5, 5),
        fr.path(4),
        fr.complete_multipartite([1, 3]),  # peeling the apex leaves 3 points
    ],
)
def test_not_virtual_pd(g):
    verdict = fr.is_virtual_pd(system(g))
    assert not verdict.is_vpd and verdict.dimension is None


def test_two_universal_vertices_still_give_a_duality_group():
    # K_{1,1,2} = join(K_2, 2K_1): peel both apexes, the core is a 0-sphere
    verdict = fr.is_virtual_pd(system(fr.complete_multipartite([1, 1, 2])))
    assert verdict.is_vpd and verdict.dimension == 1
    assert len(verdict.spherical_factor) == 2


@pytest.mark.parametrize(
    "g,n", [(fr.cycle(5), 1), (fr.cross_polytope(3), 2), (fr.icosahedron(), 2)]
)
def test_homology_spheres_are_never_cones(g, n):
    # peeling exactly the universal set is sound because a nonempty
    # generalized homology sphere has no cone vertex
    sphere = fr.is_generalized_homology_sphere(fr.clique_complex(g))
    assert sphere.is_sphere and sphere.dimension == n
    core, factor = fr.join_decomposition(system(g))
    assert factor == ()


# ------------------------------------------------------------- condition 3


def test_condition3_holds_for_the_pentagon():
    result = fr.condition3_vanishing(system(fr.cycle(5)))
    assert result.holds and result.witness is None
    assert result.subsets_checked == 10


def test_condition3_holds_for_the_square():
    # deleting a vertex leaves a path, deleting an edge leaves the
    # opposite edge; every remainder is contractible
    result = fr.condition3_vanishing(system(fr.cycle(4)))
    assert result.holds and result.witness is None
    assert result.subsets_checked == 8


def test_condition3_fails_on_the_torus_grid():
    result = fr.condition3_vanishing(system(fr.torus_grid(5, 5)))
    assert not result.holds
    w = result.witness
    assert len(w.subset) == 1  # one deleted vertex already leaves a punctured torus
    assert w.degree == 1
    assert str(w.group) == "Z^2"


def test_condition3_sees_the_empty_remainder_of_a_complete_graph():
    # T = S is spherical here and leaves the (-1)-sphere, whose reduced
    # cohomology is Z in degree -1
    result = fr.condition3_vanishing(system(fr.complete(3)))
    assert not result.holds
    assert result.witness.subset == ("0", "1", "2")
    assert result.witness.degree == -1


@pytest.mark.parametrize("name,ns", named_systems())
def test_condition3_matches_subset_sweep_oracle(name, ns):
    if ns.graph.vertex_count > 12:
        pytest.skip("oracle sweeps all vertex subsets")
    failures = brute_condition3_failures(ns)
    result = fr.condition3_vanishing(ns)
    assert result.holds == (not failures)
    if failures:
        assert (tuple(result.witness.subset), result.witness.degree) in failures


@settings(max_examples=30)
@given(graphs(min_n=1, max_n=6))
def test_condition3_matches_oracle_on_random_graphs(g):
    ns = system(g)
    failures = brute_condition3_failures(ns)
    result = fr.condition3_vanishing(ns)
    assert result.holds == (not failures)
    if failures:
        assert (tuple(result.witness.subset), result.witness.degree) in failures


@pytest.mark.parametrize("name,ns", sweep_systems())
def test_condition3_matches_the_undismantled_sweep(name, ns):
    # holds, subsets_checked and the witness's subset, degree and group
    assert fr.condition3_vanishing(ns) == undismantled_condition3_vanishing(ns)


@given(graphs(max_n=9))
def test_condition3_matches_the_undismantled_sweep_on_random_graphs(g):
    ns = system(g)
    assert fr.condition3_vanishing(ns) == undismantled_condition3_vanishing(ns)


# ------------------------------------------------------------- dismantling


def induced(g, mask):
    keep = {g.labels[i] for i in iter_bits(mask)}
    return fr.Graph.from_edges(
        [v for v in g.labels if v in keep],
        [(u, v) for u, v in g.edges() if u in keep and v in keep],
    )


def clique_homology(g, mask):
    return fr.reduced_homology(fr.clique_complex(induced(g, mask)))


def drawn_subset(g, data):
    return data.draw(st.integers(0, (1 << g.vertex_count) - 1))


def closed_rows(g):
    return [a | 1 << i for i, a in enumerate(g.adj)]


@given(graphs(max_n=9), st.data())
def test_closed_rows_give_the_adjacency_core_bit_for_bit(g, data):
    # the same deletion order, so the same core bitset, not just the same homology
    w = drawn_subset(g, data)
    assert _dismantled(closed_rows(g), w) == adjacency_dismantled(g.adj, w)


@given(graphs(max_n=9), st.data())
def test_dismantling_keeps_the_homology(g, data):
    w = drawn_subset(g, data)
    core = _dismantled(closed_rows(g), w)
    assert core & ~w == 0
    assert (core == 0) == (w == 0)
    assert clique_homology(g, core) == clique_homology(g, w)
    if core.bit_count() == 1:
        assert clique_homology(g, w).is_trivial_everywhere


@given(graphs(max_n=9), st.data())
def test_no_core_vertex_is_dominated(g, data):
    core = _dismantled(closed_rows(g), drawn_subset(g, data))
    inside = [g.labels[i] for i in iter_bits(core)]

    def closed(v):
        return {v} | {u for u in inside if g.has_edge(u, v)}

    for v in inside:
        for u in closed(v) - {v}:
            assert not closed(v) <= closed(u), f"{v} is dominated by {u}"


@given(graphs(max_n=9), st.data())
def test_the_core_does_not_depend_on_the_vertex_order(g, data):
    # strong-collapse cores are unique up to isomorphism
    w = drawn_subset(g, data)
    h = reordered(g, data.draw(st.permutations(g.labels)))
    w_h = sum(1 << h.index(g.labels[i]) for i in iter_bits(w))
    core_g, core_h = _dismantled(closed_rows(g), w), _dismantled(closed_rows(h), w_h)
    assert core_g.bit_count() == core_h.bit_count()
    assert fr.are_isomorphic(induced(g, core_g), induced(h, core_h))


# ----------------------------------------------------- group cohomology


def test_group_cohomology_of_the_pentagon_system():
    ns = system(fr.cycle(5))
    assert fr.coxeter_cohomology_if_fg(ns, 2) == fr.INTEGERS
    assert fr.coxeter_cohomology_if_fg(ns, 1) == fr.TRIVIAL_GROUP
    assert fr.coxeter_cohomology_if_fg(ns, 0) == fr.TRIVIAL_GROUP


def test_group_cohomology_detects_non_finite_generation():
    ns = system(fr.torus_grid(5, 5))
    assert fr.coxeter_cohomology_if_fg(ns, 2) is fr.NOT_FINITELY_GENERATED
    # one degree up the vanishing hypothesis holds again and the torus
    # class comes through
    assert fr.coxeter_cohomology_if_fg(ns, 3) == fr.INTEGERS


@pytest.mark.parametrize(
    "name,ns", [(name, ns) for name, ns in sweep_systems() if fr.is_irreducible(ns)]
)
def test_group_cohomology_matches_the_undismantled_sweep(name, ns):
    cohs = [coh for _, coh in undismantled_complement_cohomologies(ns)]
    nerve = fr.reduced_cohomology(ns.nerve)
    for i in range(ns.nerve.dimension + 3):
        if all(coh.group(i - 1).is_trivial for coh in cohs):
            assert fr.coxeter_cohomology_if_fg(ns, i) == nerve.group(i - 1)
        else:
            assert fr.coxeter_cohomology_if_fg(ns, i) is fr.NOT_FINITELY_GENERATED


def test_group_cohomology_requires_irreducible():
    with pytest.raises(ValueError):
        fr.coxeter_cohomology_if_fg(system(fr.cycle(4)), 2)


def test_group_cohomology_rejects_negative_degree():
    with pytest.raises(ValueError):
        fr.coxeter_cohomology_if_fg(system(fr.cycle(5)), -1)


# ---------------------------------------------------------------- crosscheck


@pytest.mark.parametrize(
    "g,expected",
    [
        (fr.cycle(5), (True, True, True)),
        (fr.cycle(6), (True, True, True)),
        (fr.cycle(7), (True, True, True)),
        (fr.icosahedron(), (True, True, True)),
        (fr.torus_grid(5, 5), (False, False, False)),
        (fr.path(4), (False, False, False)),
    ],
)
def test_crosscheck_statements_agree(g, expected):
    report = fr.lemma_key_crosscheck(system(g))
    assert report.statements == expected
    assert report.consistent


def test_crosscheck_rejects_reducible_systems():
    with pytest.raises(ValueError):
        fr.lemma_key_crosscheck(system(fr.cycle(4)))


def test_crosscheck_rejects_finite_systems():
    # K4 is reducible too, so that check speaks first; K1 is the one finite
    # irreducible system
    with pytest.raises(ValueError, match="^crosscheck requires an irreducible system$"):
        fr.lemma_key_crosscheck(system(fr.complete(4)))
    with pytest.raises(ValueError, match="^crosscheck requires an infinite group$"):
        fr.lemma_key_crosscheck(system(fr.complete(1)))


@settings(max_examples=40)
@given(graphs(min_n=3, max_n=7))
def test_crosscheck_never_disagrees_on_random_systems(g):
    ns = system(g)
    if fr.is_finite_group(ns) or not fr.is_irreducible(ns):
        return
    assert fr.lemma_key_crosscheck(ns).consistent

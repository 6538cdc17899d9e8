"""Homology manifold detection, sphere checks, and boundary extraction."""

import pytest

import flagrecon as fr
from oracles import hub, small_corpus


def bowtie():
    """Two triangles pinched at one vertex; pure but not a manifold."""
    return fr.Graph.from_edges(
        "01234",
        [("0", "1"), ("0", "2"), ("1", "2"), ("0", "3"), ("0", "4"), ("3", "4")],
    )


def wheel():
    return fr.join(fr.cycle(4), hub())


# ----------------------------------------------------------------- helpers


def test_sphere_homology_values():
    assert set(fr.sphere_homology(-1).nontrivial()) == {-1}
    assert set(fr.sphere_homology(0).nontrivial()) == {0}
    assert str(fr.sphere_homology(2).group(2)) == "Z"
    with pytest.raises(ValueError):
        fr.sphere_homology(-2)


@pytest.mark.parametrize(
    "g,dim",
    [
        (fr.cycle(5), 1),
        (fr.cross_polytope(3), 2),
        (fr.complete(4), 3),
        (fr.torus_grid(4, 4), 2),
        (fr.path(1), 0),
    ],
)
def test_detect_dimension(g, dim):
    assert fr.clique_complex(g).dimension == dim


def test_detect_dimension_of_empty_complex():
    assert fr.clique_complex(fr.Graph((), ())).dimension == -1


def test_maximal_simplices_of_octahedron():
    L = fr.clique_complex(fr.cross_polytope(3))
    ms = fr.maximal_simplices(L)
    assert len(ms) == 8 and all(len(s) == 3 for s in ms)


def test_is_pure():
    assert fr.is_pure(fr.clique_complex(fr.cross_polytope(3)), 2)
    assert fr.is_pure(fr.clique_complex(bowtie()), 2)
    # a dangling edge breaks purity at 2
    mixed = fr.disjoint_union(fr.complete(3), fr.path(2).relabel({"0": "a", "1": "b"}))
    assert not fr.is_pure(fr.clique_complex(mixed), 2)
    assert not fr.is_pure(fr.clique_complex(fr.cycle(4)), 2)
    with pytest.raises(ValueError):
        fr.is_pure(fr.clique_complex(fr.Graph((), ())), 0)


# ------------------------------------------------------- manifold verdicts


@pytest.mark.parametrize("n", range(4, 10))
def test_cycles_are_homology_circles(n):
    L = fr.clique_complex(fr.cycle(n))
    assert fr.is_homology_manifold(L, 1).is_manifold
    assert fr.is_generalized_homology_sphere(L, 1).is_sphere


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cross_polytopes_are_homology_spheres(k):
    L = fr.clique_complex(fr.cross_polytope(k))
    verdict = fr.is_generalized_homology_sphere(L, k - 1)
    assert verdict.is_sphere and verdict.dimension == k - 1


def test_icosahedron_is_a_homology_2_sphere():
    L = fr.clique_complex(fr.icosahedron())
    assert fr.is_generalized_homology_sphere(L, 2).is_sphere


@pytest.mark.parametrize("p,q", [(4, 4), (5, 5)])
def test_torus_grid_is_a_manifold_but_not_a_sphere(p, q):
    L = fr.clique_complex(fr.torus_grid(p, q))
    mv = fr.is_homology_manifold(L, 2)
    assert mv.is_manifold and not mv.witnesses
    sv = fr.is_generalized_homology_sphere(L, 2)
    assert not sv.is_sphere


def test_manifold_verdict_counts_verified_simplices():
    L = fr.clique_complex(fr.torus_grid(4, 4))
    mv = fr.is_homology_manifold(L, 2)
    assert mv.verified == {0: 16, 1: 48, 2: 32}


def test_solid_tetrahedron_fails_at_its_vertices():
    verdict = fr.is_homology_manifold(fr.clique_complex(fr.complete(4)), 3)
    assert not verdict.is_manifold
    w = verdict.witnesses[0]
    assert len(w.simplex) == 1  # a vertex, whose link is a solid triangle
    assert set(w.local_homology.nontrivial()) == set()


def test_path_fails_at_an_endpoint():
    verdict = fr.is_homology_manifold(fr.clique_complex(fr.path(4)), 1)
    assert not verdict.is_manifold
    assert verdict.witnesses[0].simplex in (("0",), ("3",))


def test_wheel_fails_at_a_rim_vertex():
    verdict = fr.is_homology_manifold(fr.clique_complex(wheel()), 2)
    assert not verdict.is_manifold
    assert verdict.witnesses[0].simplex != ("h",)  # hub is interior, rim fails first


def test_bowtie_pinch_vertex_is_the_witness():
    verdict = fr.is_homology_manifold(fr.clique_complex(bowtie()), 2)
    assert not verdict.is_manifold
    w = verdict.witnesses[0]
    assert w.simplex == ("0",)
    # link is two disjoint edges: one extra component, shifted to degree 1
    assert {k: str(g) for k, g in w.local_homology.nontrivial().items()} == {1: "Z"}


def test_impurity_is_already_a_failure():
    L = fr.clique_complex(fr.cycle(4))
    verdict = fr.is_homology_manifold(L, 2)
    assert not verdict.is_manifold


def test_disconnected_union_of_circles_is_still_a_manifold():
    g = fr.disjoint_union(fr.cycle(4), fr.cycle(5).relabel({str(i): f"b{i}" for i in range(5)}))
    L = fr.clique_complex(g)
    assert fr.is_homology_manifold(L, 1).is_manifold
    assert not fr.is_generalized_homology_sphere(L, 1).is_sphere  # two components


def test_manifold_check_rejects_bad_input():
    with pytest.raises(ValueError):
        fr.is_homology_manifold(fr.clique_complex(fr.Graph((), ())), 0)
    with pytest.raises(ValueError):
        fr.is_homology_manifold(fr.clique_complex(fr.cycle(4)), -1)


# ------------------------------------------------------------ sphere edge


def test_empty_complex_is_the_minus_one_sphere():
    L = fr.clique_complex(fr.Graph((), ()))
    verdict = fr.is_generalized_homology_sphere(L, -1)
    assert verdict.is_sphere and verdict.dimension == -1


def test_empty_complex_at_other_dimensions_rejected():
    L = fr.clique_complex(fr.Graph((), ()))
    with pytest.raises(ValueError):
        fr.is_generalized_homology_sphere(L, 0)


def test_nonempty_complex_at_negative_dimension_rejected():
    with pytest.raises(ValueError):
        fr.is_generalized_homology_sphere(fr.clique_complex(fr.cycle(4)), -1)


def test_sphere_verdict_carries_the_homology():
    sv = fr.is_generalized_homology_sphere(fr.clique_complex(fr.torus_grid(4, 4)), 2)
    assert not sv.is_sphere
    assert sv.manifold.is_manifold  # failed on homology, not locality
    assert sv.homology is not None


# -------------------------------------------------------------- boundaries


def test_boundary_of_wheel_is_the_rim():
    assert fr.boundary_of(fr.clique_complex(wheel()), 2) == frozenset("0123")


def test_boundary_of_path_is_its_endpoints():
    assert fr.boundary_of(fr.clique_complex(fr.path(4)), 1) == frozenset({"0", "3"})


def test_closed_manifolds_have_empty_boundary():
    assert fr.boundary_of(fr.clique_complex(fr.cross_polytope(3)), 2) == frozenset()
    assert fr.boundary_of(fr.clique_complex(fr.cycle(6)), 1) == frozenset()


def test_boundary_of_solid_tetrahedron_is_every_vertex():
    assert fr.boundary_of(fr.clique_complex(fr.complete(4)), 3) == frozenset("0123")


def test_boundary_rejects_impure_input():
    with pytest.raises(ValueError):
        fr.boundary_of(fr.clique_complex(fr.path(4)), 2)


def test_boundary_pattern_error_names_the_bad_vertex():
    with pytest.raises(fr.BoundaryPatternError) as exc:
        fr.boundary_of(fr.clique_complex(bowtie()), 2)
    assert exc.value.vertex == "0"
    assert set(exc.value.local_homology.nontrivial()) == {1}


def test_boundary_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        fr.boundary_of(fr.clique_complex(fr.Graph((), ())), 1)
    with pytest.raises(ValueError):
        fr.boundary_of(fr.clique_complex(fr.cycle(4)), -1)

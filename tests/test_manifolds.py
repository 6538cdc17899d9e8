"""Homology manifold detection, sphere checks, and boundary extraction."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagrecon as fr
from oracles import (
    face_list_complexes,
    hub,
    links_boundary_of,
    projective_plane,
    small_corpus,
    subdivided,
    suffixed,
)


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


def paw():
    """Triangle abc with a pendant edge cd: a 2-complex that is not pure."""
    return fr.Graph.from_edges("abcd", [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])


def test_is_pure():
    assert fr.is_pure(fr.clique_complex(fr.cross_polytope(3)))
    assert fr.is_pure(fr.clique_complex(bowtie()))
    assert fr.is_pure(fr.clique_complex(fr.cycle(4)))
    # a dangling edge breaks purity at 2
    mixed = fr.disjoint_union(fr.complete(3), fr.path(2).relabel({"0": "a", "1": "b"}))
    assert not fr.is_pure(fr.clique_complex(mixed))
    assert not fr.is_pure(fr.clique_complex(paw()))
    with pytest.raises(ValueError):
        fr.is_pure(fr.clique_complex(fr.Graph((), ())))


# ------------------------------------------------------- manifold verdicts


@pytest.mark.parametrize("n", range(4, 10))
def test_cycles_are_homology_circles(n):
    L = fr.clique_complex(fr.cycle(n))
    assert fr.is_homology_manifold(L).is_manifold
    assert fr.is_generalized_homology_sphere(L).is_sphere


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cross_polytopes_are_homology_spheres(k):
    L = fr.clique_complex(fr.cross_polytope(k))
    verdict = fr.is_generalized_homology_sphere(L)
    assert verdict.is_sphere and verdict.dimension == k - 1


def test_icosahedron_is_a_homology_2_sphere():
    L = fr.clique_complex(fr.icosahedron())
    assert fr.is_generalized_homology_sphere(L).is_sphere


@pytest.mark.parametrize("p,q", [(4, 4), (5, 5)])
def test_torus_grid_is_a_manifold_but_not_a_sphere(p, q):
    L = fr.clique_complex(fr.torus_grid(p, q))
    mv = fr.is_homology_manifold(L)
    assert mv.is_manifold and mv.witness is None
    sv = fr.is_generalized_homology_sphere(L)
    assert not sv.is_sphere


def test_manifold_verdict_counts_verified_simplices():
    L = fr.clique_complex(fr.torus_grid(4, 4))
    mv = fr.is_homology_manifold(L)
    assert mv.verified == {0: 16, 1: 48, 2: 32}


def test_solid_tetrahedron_fails_at_its_vertices():
    verdict = fr.is_homology_manifold(fr.clique_complex(fr.complete(4)))
    assert not verdict.is_manifold and verdict.dimension == 3
    w = verdict.witness
    assert len(w.simplex) == 1  # a vertex, whose link is a solid triangle
    assert set(w.local_homology.nontrivial()) == set()


def test_path_fails_at_an_endpoint():
    verdict = fr.is_homology_manifold(fr.clique_complex(fr.path(4)))
    assert not verdict.is_manifold and verdict.dimension == 1
    assert verdict.witness.simplex in (("0",), ("3",))


def test_wheel_fails_at_a_rim_vertex():
    verdict = fr.is_homology_manifold(fr.clique_complex(wheel()))
    assert not verdict.is_manifold
    assert verdict.witness.simplex != ("h",)  # hub is interior, rim fails first


def test_bowtie_pinch_vertex_is_the_witness():
    verdict = fr.is_homology_manifold(fr.clique_complex(bowtie()))
    assert not verdict.is_manifold
    w = verdict.witness
    assert w.simplex == ("0",)
    # link is two disjoint edges: one extra component, shifted to degree 1
    assert {k: str(g) for k, g in w.local_homology.nontrivial().items()} == {1: "Z"}


def test_impurity_is_already_a_failure():
    # the pendant edge cd is a maximal simplex below the paw's dimension 2;
    # its link is empty, so its local homology is Z in degree 1
    verdict = fr.is_homology_manifold(fr.clique_complex(paw()))
    assert not verdict.is_manifold and verdict.dimension == 2
    w = verdict.witness
    assert w.simplex == ("c", "d")
    assert w.local_homology.nontrivial() == {1: fr.INTEGERS}
    assert w.detail == "maximal simplex of dimension 1 in a complex tested at dimension 2"


def test_disconnected_union_of_circles_is_still_a_manifold():
    g = fr.disjoint_union(fr.cycle(4), fr.cycle(5).relabel({str(i): f"b{i}" for i in range(5)}))
    L = fr.clique_complex(g)
    assert fr.is_homology_manifold(L).is_manifold
    assert not fr.is_generalized_homology_sphere(L).is_sphere  # two components


def test_manifold_check_rejects_bad_input():
    with pytest.raises(ValueError):
        fr.is_homology_manifold(fr.clique_complex(fr.Graph((), ())))


# ------------------------------------------------------------ sphere edge


def test_empty_complex_is_the_minus_one_sphere():
    L = fr.clique_complex(fr.Graph((), ()))
    verdict = fr.is_generalized_homology_sphere(L)
    assert verdict.is_sphere and verdict.dimension == -1


def test_sphere_verdict_carries_the_homology():
    sv = fr.is_generalized_homology_sphere(fr.clique_complex(fr.torus_grid(4, 4)))
    assert not sv.is_sphere
    assert sv.manifold.is_manifold  # failed on homology, not locality
    assert sv.homology is not None


# -------------------------------------------------------------- boundaries


def test_boundary_of_wheel_is_the_rim():
    assert fr.boundary_of(fr.clique_complex(wheel())) == frozenset("0123")


def test_boundary_of_path_is_its_endpoints():
    assert fr.boundary_of(fr.clique_complex(fr.path(4))) == frozenset({"0", "3"})


def test_closed_manifolds_have_empty_boundary():
    assert fr.boundary_of(fr.clique_complex(fr.cross_polytope(3))) == frozenset()
    assert fr.boundary_of(fr.clique_complex(fr.cycle(6))) == frozenset()


def test_boundary_of_solid_tetrahedron_is_every_vertex():
    assert fr.boundary_of(fr.clique_complex(fr.complete(4))) == frozenset("0123")


def test_boundary_rejects_impure_input():
    with pytest.raises(ValueError, match="^complex is not pure of dimension 2$"):
        fr.boundary_of(fr.clique_complex(paw()))


def not_pure_error(L):
    """True when boundary_of rejects L as not pure; any other outcome is False."""
    try:
        fr.boundary_of(L)
    except ValueError as exc:
        return "not pure" in str(exc)
    return False


@pytest.mark.parametrize(
    "faces",
    [
        ["abc", "cd"],  # a triangle with a pendant edge
        ["abc", "d"],  # a triangle and an isolated vertex
        ["abc", "cde", "ae"],  # two triangles and an edge between them, in neither
    ],
)
def test_boundary_of_rejects_impure_2_complexes_from_their_links(faces):
    L = fr.build_complex(sorted(set("".join(faces))), [list(f) for f in faces])
    assert L.dimension == 2 and not_pure_error(L)


@settings(max_examples=150)
@given(face_list_complexes(max_face=3))
def test_boundary_of_reads_purity_as_is_pure_does(L):
    assert not_pure_error(L) == (not fr.is_pure(L))


def test_boundary_pattern_error_names_the_bad_vertex():
    with pytest.raises(fr.BoundaryPatternError) as exc:
        fr.boundary_of(fr.clique_complex(bowtie()))
    assert exc.value.vertex == "0"
    assert set(exc.value.local_homology.nontrivial()) == {1}


def test_boundary_rejects_the_empty_complex():
    with pytest.raises(ValueError):
        fr.boundary_of(fr.clique_complex(fr.Graph((), ())))


# ------------------------------------------------- rims vs. the links oracle


def rim(boundary, L):
    """The boundary; or the vertex, groups and message of a pattern error; or a refusal."""
    try:
        return boundary(L)
    except fr.BoundaryPatternError as exc:
        return exc.vertex, exc.local_homology, str(exc)
    except ValueError as exc:
        return str(exc)


def cards(g):
    return [fr.vertex_deleted(g, orbit[0]) for orbit in fr.vertex_orbits(g)]


def torus7():
    """The 7-vertex Moebius torus, which is not flag."""
    faces = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    faces += [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    return "\n".join(" ".join(map(str, f)) for f in faces)


def without_last_face(text):
    return text.rsplit("\n", 1)[0]


RP2 = "\n".join(" ".join(s) for s in projective_plane().faces(2))
HOLLOW_TETRAHEDRON = "a b c\na b d\na c d\nb c d"
FLAG_RIMS = (
    [(fr.clique_complex(c), 2) for c in cards(fr.torus_grid(4, 4)) + cards(fr.torus_grid(5, 6))]
    + [(fr.clique_complex(c), 2) for c in cards(subdivided(fr.cross_polytope(3), 3, 1))]
    + [(fr.clique_complex(c), 2) for c in cards(subdivided(fr.cross_polytope(3), 3, 2))]
    + [(fr.clique_complex(c), 2) for c in cards(subdivided(fr.torus_grid(4, 4), 4, 3))]
    + [(fr.clique_complex(c), 2) for c in cards(fr.icosahedron())]
    + [(fr.clique_complex(c), 3) for c in cards(subdivided(fr.cross_polytope(4), 2, 4))]
    + [(fr.clique_complex(wheel()), 2), (fr.clique_complex(bowtie()), 2)]
    + [(fr.clique_complex(fr.path(k)), 1) for k in (2, 3, 5)]
    + [(fr.clique_complex(fr.path(1)), 0), (fr.clique_complex(fr.cycle(6)), 1)]
    + [(fr.clique_complex(fr.disjoint_union(fr.cross_polytope(3), suffixed(wheel(), "'"))), 2)]
)
NONFLAG_RIMS = [
    ("a b\nb c\na c", 1),  # hollow triangle
    (HOLLOW_TETRAHEDRON, 2),
    (RP2, 2),
    (without_last_face(RP2), 2),  # a Moebius band: the removed face's vertices are the rim
    (torus7(), 2),
    (without_last_face(torus7()), 2),
    (HOLLOW_TETRAHEDRON + "\na e f\na f g\na e g\ne f g", 2),  # two spheres pinched at a
    ("a b c\na b d\na b e", 2),  # three triangles on one edge
    ("a\nb\nc", 0),
    ("a b c\na b d\nc e", 2),  # not pure: the edge ce lies in no triangle
]


@pytest.mark.parametrize("L,n", FLAG_RIMS)
def test_boundary_of_flag_complexes_matches_the_links_oracle(L, n):
    assert L.dimension == n
    assert rim(fr.boundary_of, L) == rim(links_boundary_of, L)


@pytest.mark.parametrize("text,n", NONFLAG_RIMS)
def test_boundary_of_complexes_from_face_lists_matches_the_links_oracle(text, n):
    L = fr.parse_complex(text)
    assert L.dimension == n
    assert rim(fr.boundary_of, L) == rim(links_boundary_of, L)


def test_the_rim_of_a_moebius_band_is_the_removed_face():
    removed = RP2.rsplit("\n", 1)[1].split()
    assert fr.boundary_of(fr.parse_complex(without_last_face(RP2))) == frozenset(removed)


def test_a_pinch_of_two_spheres_is_reported_with_its_groups():
    L = fr.parse_complex(HOLLOW_TETRAHEDRON + "\na e f\na f g\na e g\ne f g")
    with pytest.raises(fr.BoundaryPatternError) as exc:
        fr.boundary_of(L)
    assert exc.value.vertex == "a"
    assert exc.value.local_homology.nontrivial() == {1: fr.AbelianGroup(1), 2: fr.AbelianGroup(2)}


PURE_2_COMPLEXES = st.sets(st.sampled_from(list(combinations("abcdef", 3))), min_size=1)


@given(PURE_2_COMPLEXES)
def test_boundary_of_every_pure_2_complex_matches_the_links_oracle(faces):
    L = fr.parse_complex("\n".join(" ".join(f) for f in sorted(faces)))
    assert L.dimension == 2
    assert rim(fr.boundary_of, L) == rim(links_boundary_of, L)

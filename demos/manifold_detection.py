"""
Recognising homology manifolds simplex by simplex
=================================================

A complex is a homology n-manifold when every simplex link has the
reduced homology of the sphere of complementary dimension.  Each check
below tests a complex at its own dimension n, runs that definition verbatim
and reports a witness when it fails.
"""

import flagrecon as fr

# closed 1-manifolds: every cycle of length >= 4 is a circle
for n in (4, 5, 8):
    L = fr.clique_complex(fr.cycle(n))
    verdict = fr.is_homology_manifold(L)
    print(f"C{n}: manifold={verdict.is_manifold}, links checked: {verdict.verified}")

# the octahedron and icosahedron are flag triangulations of S^2
for name, g in [("octahedron", fr.cross_polytope(3)), ("icosahedron", fr.icosahedron())]:
    s = fr.is_generalized_homology_sphere(fr.clique_complex(g))
    print(f"{name}: sphere={s.is_sphere}, homology {s.homology}")

# the torus is a closed surface but not a sphere: H_1 survives
L = fr.clique_complex(fr.torus_grid(5, 5))
print("torus 5x5: manifold =", fr.is_homology_manifold(L).is_manifold)
print("torus 5x5: sphere   =", fr.is_generalized_homology_sphere(L).is_sphere)

# failure is always explained.  A path has endpoints whose link is a
# single point, and a point does not look like S^0.
verdict = fr.is_homology_manifold(fr.clique_complex(fr.path(4)))
w = verdict.witness
print("path P4:", w.detail, "at", w.simplex)

# a complex that is not pure fails before any link is read: the paw's
# pendant edge cd is a maximal simplex below the complex's dimension 2
paw = fr.Graph.from_edges("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
w = fr.is_homology_manifold(fr.clique_complex(paw)).witness
print("paw:", w.detail, "at", w.simplex)

# pinch two triangles together at "a" and the pinch gives itself away:
# its link is two disjoint edges, so local homology picks up an extra Z
bowtie = fr.Graph.from_edges(
    "abcde", [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "e"), ("e", "a")]
)
w = fr.is_homology_manifold(fr.clique_complex(bowtie)).witness
print("bowtie:", w.simplex, "->", w.local_homology)

# local homology at interior simplices of an n-manifold is Z in degree n
L = fr.clique_complex(fr.cross_polytope(3))
print("octahedron local homology at a vertex:", fr.local_homology(L, ["0"]))

# boundary extraction: delete a vertex from a closed manifold and the
# hole's rim is exactly the deleted vertex's old neighbourhood
card = fr.vertex_deleted(fr.icosahedron(), "0")
rim = fr.boundary_of(fr.clique_complex(card))
print("icosahedron minus a vertex, boundary rim:", sorted(rim))

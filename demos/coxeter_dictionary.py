"""
The right-angled dictionary on the nerve
========================================

A graph doubles as a right-angled Coxeter system: vertices generate, an
edge means the two generators commute.  Group-theoretic questions then
turn into combinatorics of the graph and topology of its clique complex,
and everything below is computed that way.
"""

import flagrecon as fr


def system(g):
    return fr.NerveSystem.from_graph(g)


# spherical subsets (finite parabolic subgroups) are exactly the cliques
pentagon = system(fr.cycle(5))
print("C5 spherical subsets:", len(fr.spherical_subsets(pentagon)))
print("an edge is spherical:", fr.is_spherical(pentagon, ["0", "1"]))
print("a diagonal is not:  ", fr.is_spherical(pentagon, ["0", "2"]))

# the whole group is finite iff the graph is complete
print("K4 gives a finite group:", fr.is_finite_group(system(fr.complete(4))))
print("C5 gives a finite group:", fr.is_finite_group(pentagon))

# reducible means the graph is a nontrivial join; equivalently the
# complement is disconnected.  C4 = 2K1 * 2K1 is the classic example.
print("C4 irreducible:", fr.is_irreducible(system(fr.cycle(4))))
print("C5 irreducible:", fr.is_irreducible(pentagon))

# join_decomposition peels off the universal vertices (the spherical
# factor); the wheel splits as hub * rim
hub = fr.Graph.from_edges(["h"], [])
wheel = system(fr.join(fr.cycle(4), hub))
core, factor = fr.join_decomposition(wheel)
print("wheel splits as", factor, "*", core)

# virtual duality: after peeling, the core's complex must be a
# generalized homology sphere.  The wheel passes through its C4 core.
pd = fr.is_virtual_pd(wheel)
print("wheel virtual PD:", pd.is_vpd, "dimension", pd.dimension)
pd = fr.is_virtual_pd(system(fr.torus_grid(5, 5)))
print("torus virtual PD:", pd.is_vpd)

# the cohomology vanishing condition scans all full subcomplexes L_{S-T}
# over nonempty spherical T; the pentagon leaves only contractible pieces
res = fr.condition3_vanishing(pentagon)
print("C5 vanishing:", res.holds, "after", res.subsets_checked, "subsets")
res = fr.condition3_vanishing(system(fr.torus_grid(4, 4)))
print("torus vanishing:", res.holds, "witness degree", res.witness.degree)

# group cohomology in the finitely generated range, degree by degree
print("C5 H^2 (if f.g.):", fr.coxeter_cohomology_if_fg(pentagon, 2))
print("C5 H^1 (if f.g.):", fr.coxeter_cohomology_if_fg(pentagon, 1))
torus = system(fr.torus_grid(4, 4))
print("torus H^2 marker:", fr.coxeter_cohomology_if_fg(torus, 2))

# for irreducible infinite systems, three different statements must rise
# and fall together; the crosscheck recomputes each from scratch
for name, g in [("C7", fr.cycle(7)), ("icosahedron", fr.icosahedron())]:
    rep = fr.lemma_key_crosscheck(system(g))
    print(f"{name}: statements {rep.statements}, consistent={rep.consistent}")

"""Exact integer homology: boundary maps, Smith forms, and the two
cohomology routes."""

import importlib
import itertools
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagrecon as fr
from flagrecon import homology
from flagrecon.graphs import _dismantled, iter_bits
from oracles import (
    barycentric_subdivision,
    corpus_complexes,
    determinant,
    dunce_hat,
    face_list_complexes,
    graphs,
    hub,
    identity_matrix,
    is_unimodular,
    matrix_from_rows,
    matrix_multiply,
    projective_plane,
    rational_betti,
    rational_rank,
    reduced_cohomology_via_cochains,
    smith_transforms,
    suffixed,
    suspension,
    transpose,
    unpaired_reduced_homology,
)

# ------------------------------------------------------------ matrix basics


def test_integer_matrix_shape_validation():
    with pytest.raises(ValueError):
        matrix_from_rows([[1, 2], [3]])


def test_matrix_multiply_against_identity():
    m = matrix_from_rows([[1, 2], [3, 4], [5, 6]])
    assert matrix_multiply(identity_matrix(3), m) == m
    assert matrix_multiply(m, identity_matrix(2)) == m


def test_transpose_swaps_shape():
    m = matrix_from_rows([[1, 2, 3], [4, 5, 6]])
    t = transpose(m)
    assert (t.rows, t.cols) == (3, 2)
    assert t.entries == ((1, 4), (2, 5), (3, 6))


# ------------------------------------------------------------ boundary maps


def test_boundary_matrix_shapes():
    L = fr.clique_complex(fr.cross_polytope(3))
    assert (fr.boundary_matrix(L, 1).rows, fr.boundary_matrix(L, 1).cols) == (6, 12)
    assert (fr.boundary_matrix(L, 2).rows, fr.boundary_matrix(L, 2).cols) == (12, 8)
    # reduced 0-boundary is the augmentation row
    aug = fr.boundary_matrix(L, 0, reduced=True)
    assert (aug.rows, aug.cols) == (1, 6)
    assert all(e == 1 for row in aug.entries for e in row)
    # plain 0-boundary is empty
    assert fr.boundary_matrix(L, 0).rows == 0


def test_boundary_of_an_edge():
    L = fr.clique_complex(fr.path(2))
    d1 = fr.boundary_matrix(L, 1)
    assert d1.entries == ((-1,), (1,))


@pytest.mark.parametrize("name,L", corpus_complexes())
def test_boundary_squared_is_zero(name, L):
    for k in range(L.dimension + 1):
        upper = fr.boundary_matrix(L, k + 1)
        lower = fr.boundary_matrix(L, k, reduced=(k == 0))
        prod = matrix_multiply(lower, upper)
        assert all(e == 0 for row in prod.entries for e in row)


# -------------------------------------------------------------- Smith form


@pytest.mark.parametrize(
    "rows,factors",
    [
        ([[2, 4], [6, 8]], (2, 4)),
        ([[1, 0], [0, 1]], (1, 1)),
        ([[0, 0], [0, 0]], ()),
        ([[2, 0], [0, 3]], (1, 6)),
        ([[6]], (6,)),
        ([[4, 6], [6, 9]], (1,)),  # rank 1; the factor is the gcd of all entries
    ],
)
def test_smith_form_known_cases(rows, factors):
    snf = fr.smith_normal_form(matrix_from_rows(rows))
    assert snf.invariant_factors == factors
    assert snf.rank == len(factors)


def matrices(max_dim=6, max_entry=9):
    side = st.integers(1, max_dim)
    return st.tuples(side, side).flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(-max_entry, max_entry), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        )
    )


@settings(max_examples=120)
@given(matrices())
def test_smith_form_transforms_are_unimodular_and_diagonalise(rows):
    m = matrix_from_rows(rows)
    snf = fr.smith_normal_form(m)
    u, v = smith_transforms(m)
    assert is_unimodular(list(map(list, u.entries)))
    assert is_unimodular(list(map(list, v.entries)))
    d = matrix_multiply(matrix_multiply(u, m), v)
    for i in range(d.rows):
        for j in range(d.cols):
            want = snf.invariant_factors[i] if i == j and i < snf.rank else 0
            assert d.entries[i][j] == want
    # divisibility chain
    for a, b in zip(snf.invariant_factors, snf.invariant_factors[1:]):
        assert b % a == 0
    assert snf.rank == rational_rank(rows)


def test_smith_form_tames_entry_growth():
    # dense matrix that blows up to ~10^5-digit entries (and effectively
    # never finishes) unless the pivot is re-chosen between reduction rounds
    rows = [
        [-1, 7, 7, -6, 8],
        [7, 2, 3, -8, 7],
        [-8, -2, -2, -3, 2],
        [-3, -2, 9, 6, 0],
        [1, -4, -3, 0, 2],
        [5, -6, -6, -4, 8],
    ]
    m = matrix_from_rows(rows)
    snf = fr.smith_normal_form(m)
    assert snf.invariant_factors == (1, 1, 1, 1, 1)
    u, v = smith_transforms(m)
    d = matrix_multiply(matrix_multiply(u, m), v)
    assert all(
        d.entries[i][j] == (1 if i == j and i < 5 else 0)
        for i in range(6)
        for j in range(5)
    )
    for t in (u, v):
        assert all(abs(e) < 10**9 for row in t.entries for e in row)


# ------------------------------------------------- the sparse Smith kernel


def kernel(m):
    """Rank and non-unit invariant factors from the library's sparse kernel."""
    return homology._smith([{j: x for j, x in enumerate(row) if x} for row in m.entries], m.cols)


def oracle(m):
    """Rank and non-unit invariant factors read off the diagonal of U m V."""
    u, v = smith_transforms(m)
    d = matrix_multiply(matrix_multiply(u, m), v)
    diagonal = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    assert all(x == 0 for i, row in enumerate(d.entries) for j, x in enumerate(row) if i != j)
    factors = [x for x in diagonal if x]
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    return len(factors), tuple(x for x in factors if x > 1)


@st.composite
def torsion_matrices(draw, max_dim=6):
    """U D V: a diagonal D with factors up to 12 under drawn elementary row and column operations."""
    r, c = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    rows = [[0] * c for _ in range(r)]
    for i in range(min(r, c)):
        rows[i][i] = draw(st.sampled_from([0, 1, -1, 2, 3, 4, 6, 12]))
    for _ in range(draw(st.integers(0, 12))):
        on_rows = draw(st.booleans())  # else a column operation, as a row operation on the transpose
        a = rows if on_rows else [list(col) for col in zip(*rows)]
        i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a) - 1))
        f = draw(st.integers(-3, 3))
        if i != j:
            a[i] = [x + f * y for x, y in zip(a[i], a[j])]
        rows = a if on_rows else [list(col) for col in zip(*a)]
    return rows


@settings(max_examples=300)
@given(
    st.one_of(
        matrices(),  # rectangular as often as square
        matrices(max_entry=1),  # +-1 heavy: mostly unit pivots
        matrices(max_entry=0),  # zero
        torsion_matrices(),
    )
)
def test_unit_elimination_matches_dense_smith_form(rows):
    m = matrix_from_rows(rows)
    assert kernel(m) == oracle(m)


@pytest.mark.parametrize("name,L", corpus_complexes())
def test_unit_elimination_matches_dense_smith_form_per_degree(name, L):
    for k in range(L.dimension + 2):
        m = fr.boundary_matrix(L, k, reduced=(k == 0))
        assert kernel(m) == oracle(m)


@pytest.mark.parametrize(
    "rows,want",
    [
        ([[2, 3]], (1, ())),  # the remainder 1 is swapped into the column
        ([[4, 6]], (1, (2,))),
        ([[6, 10, 15]], (1, ())),
        ([[2, 3], [0, 5]], (2, (10,))),
        ([[0, 2, 3], [0, 0, 0]], (1, ())),
    ],
)
def test_the_kernel_swaps_a_row_remainder_into_the_column(rows, want):
    m = matrix_from_rows(rows)
    assert kernel(m) == oracle(m) == want


def residual(L, degree):
    """The boundary out of ``degree`` restricted to the cells pairing leaves, as a dense matrix."""
    faces, levels = homology._cells(L)
    alive = homology._pair_off(faces)
    cols, rows = ([c for c in levels[k] if alive[c]] for k in (degree + 1, degree))
    sparse = homology._rows(faces, cols, rows)
    return matrix_from_rows([[row.get(j, 0) for j in range(len(cols))] for row in sparse], len(cols))


def test_projective_plane_torsion_survives_to_the_residual():
    m = residual(projective_plane(), 2)
    assert m.rows and m.cols
    assert kernel(m) == oracle(m) == (m.cols, (2,))


def test_the_subdivided_projective_plane_leaves_one_non_unit_factor():
    m = residual(fr.clique_complex(barycentric_subdivision(projective_plane())), 2)
    assert (m.rows, m.cols) == (15, 15)
    assert kernel(m) == oracle(m) == (15, (2,))
    assert fr.smith_normal_form(m).invariant_factors == (1,) * 14 + (2,)


# ---------------------------------------------------------- homology groups


def groups_of(gg):
    return {k: str(gg.group(k)) for k in sorted(gg.nontrivial())}


def test_homology_of_empty_complex_is_the_minus_one_sphere():
    L = fr.clique_complex(fr.Graph((), ()))
    assert groups_of(fr.reduced_homology(L)) == {-1: "Z"}


@pytest.mark.parametrize(
    "L,expected",
    [
        (fr.clique_complex(fr.complete(1)), {}),
        (fr.clique_complex(fr.Graph.from_edges(["a", "b"], [])), {0: "Z"}),
        (fr.clique_complex(fr.cycle(4)), {1: "Z"}),
        (fr.clique_complex(fr.cycle(7)), {1: "Z"}),
        (fr.clique_complex(fr.complete(4)), {}),
        (fr.clique_complex(fr.cross_polytope(3)), {2: "Z"}),
        (fr.clique_complex(fr.cross_polytope(4)), {3: "Z"}),
        (fr.clique_complex(fr.torus_grid(4, 4)), {1: "Z^2", 2: "Z"}),
        (fr.clique_complex(fr.torus_grid(5, 5)), {1: "Z^2", 2: "Z"}),
        (fr.clique_complex(fr.icosahedron()), {2: "Z"}),
        (projective_plane(), {1: "Z/2"}),
    ],
)
def test_reduced_homology_frozen_values(L, expected):
    assert groups_of(fr.reduced_homology(L)) == expected


@pytest.mark.parametrize("name,L", corpus_complexes())
def test_free_ranks_match_rational_oracle(name, L):
    h = fr.reduced_homology(L)
    got = {k: h.group(k).rank for k in range(-1, L.dimension + 1) if h.group(k).rank}
    assert got == rational_betti(L)


@pytest.mark.parametrize("name,L", corpus_complexes())
def test_euler_characteristic_equals_alternating_rank_sum(name, L):
    h = fr.reduced_homology(L)
    total = sum((-1) ** k * h.group(k).rank for k in range(-1, L.dimension + 1))
    assert fr.euler_characteristic(L) == total + (0 if L.vertex_count == 0 else 1)


@given(graphs(max_n=7))
def test_homology_of_random_flag_complexes_matches_oracle_ranks(g):
    L = fr.clique_complex(g)
    h = fr.reduced_homology(L)
    got = {k: h.group(k).rank for k in range(-1, L.dimension + 1) if h.group(k).rank}
    assert got == rational_betti(L)


# ------------------------------------------ pairing before any elimination


@settings(max_examples=150)
@given(st.one_of(graphs(max_n=8).map(fr.clique_complex), face_list_complexes()))
def test_pairing_keeps_every_group_of_random_complexes(L):
    assert fr.reduced_homology(L) == unpaired_reduced_homology(L)


@pytest.mark.parametrize(
    "L,expected",
    [
        (projective_plane(), {1: "Z/2"}),
        (suspension(projective_plane()), {2: "Z/2"}),
        (dunce_hat(), {}),  # contractible, with no free face to start a collapse
        (suspension(dunce_hat()), {}),
        (fr.clique_complex(fr.torus_grid(5, 5)), {1: "Z^2", 2: "Z"}),
    ],
)
def test_pairing_keeps_every_group_where_cells_are_left(L, expected):
    assert groups_of(fr.reduced_homology(L)) == expected
    assert fr.reduced_homology(L) == unpaired_reduced_homology(L)


def test_the_torus_leaves_cells_to_eliminate():
    faces, levels = homology._cells(fr.clique_complex(fr.torus_grid(5, 5)))
    alive = homology._pair_off(faces)
    assert [sum(alive[c] for c in level) for level in levels] == [0, 0, 19, 18]


def test_a_face_list_pairs_off_its_own_cells(monkeypatch):
    # the boundary of the 8-simplex, S^7, has 510 faces: with the empty cell, 511 reach the
    # pairing, where a route through the barycentric subdivision would hand over millions
    sizes = []
    pair_off = homology._pair_off
    monkeypatch.setattr(homology, "_pair_off", lambda faces: sizes.append(len(faces)) or pair_off(faces))
    labels = [str(i) for i in range(9)]
    L = fr.build_complex(labels, itertools.combinations(labels, 8))
    assert sum(fr.f_vector(L)) == 510 and L.rows is None
    assert groups_of(fr.reduced_homology(L)) == {7: "Z"}
    assert sizes == [511]


def test_a_sphere_pairs_off_whole_and_reaches_no_matrix(monkeypatch):
    received = []

    def recording(fn, shape):
        def wrapper(*args):
            received.append(shape(*args))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(homology, "_smith", recording(homology._smith, lambda rows, cols: rows))
    report = fr.analysis_report(fr.cross_polytope(4), source_format="graph6")
    assert report["certificate"]["verdict"] == "theorem_2"
    assert groups_of(fr.reduced_homology(fr.clique_complex(fr.cross_polytope(4)))) == {3: "Z"}
    assert not any(received)


# -------------------------------- flag complexes, relative to a grown acyclic subcomplex


def rebuilt(g, mask):
    """The flag complex ``g`` induces on bitset ``mask``, rebuilt from its faces, with no rows."""
    labels = [g.labels[i] for i in iter_bits(mask)]
    faces = fr.clique_complex(fr.full_subgraph(g, labels)).simplices
    return fr.build_complex(labels, [s for level in faces for s in level])


def wedge(g, h, v):
    """``g`` and a copy of ``h`` glued at the vertex ``v`` of each."""
    h = h.relabel({u: u if u == v else u + "'" for u in h.labels})
    return fr.Graph.from_edges(g.labels + tuple(u for u in h.labels if u != v), g.edges() + h.edges())


@settings(max_examples=150)
@given(
    st.one_of(
        graphs(max_n=9),
        st.tuples(graphs(max_n=5), graphs(max_n=5)).map(
            lambda p: fr.disjoint_union(p[0], suffixed(p[1], "'"))
        ),
    ),
    st.data(),
)
def test_flag_homology_of_any_mask_matches_the_unpaired_oracle(g, data):
    mask = data.draw(st.integers(0, (1 << g.vertex_count) - 1) | st.just(0))
    L = rebuilt(g, mask)
    assert L.rows is None
    assert homology.flag_homology(g.adj, mask) == unpaired_reduced_homology(L)


@pytest.mark.parametrize(
    "g,expected",
    [
        (barycentric_subdivision(projective_plane()), {1: "Z/2"}),
        # contractible with no free face: growth may stall, and pairing must finish the job
        (barycentric_subdivision(dunce_hat()), {}),
        (wedge(fr.cross_polytope(3), fr.cross_polytope(3), "0"), {2: "Z^2"}),
        (fr.join(hub(), fr.torus_grid(4, 4)), {}),  # a cone
        (fr.torus_grid(5, 5), {1: "Z^2", 2: "Z"}),
        (fr.cross_polytope(4), {3: "Z"}),
        (fr.Graph((), ()), {-1: "Z"}),
    ],
    ids=["sd-RP2", "sd-dunce-hat", "octahedra-wedge", "cone", "torus", "cross4", "empty"],
)
def test_flag_homology_known_complexes(g, expected):
    full = (1 << g.vertex_count) - 1
    h = homology.flag_homology(g.adj, full)
    assert groups_of(h) == expected
    assert h == fr.reduced_homology(fr.clique_complex(g)) == unpaired_reduced_homology(rebuilt(g, full))


def test_an_empty_mask_is_the_minus_one_sphere_in_any_graph():
    assert groups_of(homology.flag_homology(fr.torus_grid(4, 4).adj, 0)) == {-1: "Z"}


def test_a_triangle_free_mask_is_read_off_counts(monkeypatch):
    monkeypatch.setattr(homology, "_pair_off", None)  # counts must answer without any cell
    g = fr.disjoint_union(fr.cycle(6), suffixed(fr.path(3), "'"))
    assert groups_of(homology.flag_homology(g.adj, (1 << g.vertex_count) - 1)) == {0: "Z", 1: "Z"}
    # the triangles of an octahedron are left out by the mask: its equator, a 4-cycle
    equator = sum(1 << i for i in range(4))
    assert groups_of(homology.flag_homology(fr.cross_polytope(3).adj, equator)) == {1: "Z"}


def test_growth_tests_each_vertex_at_most_once_per_neighbour_that_joins(monkeypatch):
    g = fr.torus_grid(20, 20)
    calls = []
    monkeypatch.setattr(homology, "_dismantled", lambda *a: calls.append(a) or _dismantled(*a))
    assert groups_of(homology.flag_homology(g.adj, (1 << g.vertex_count) - 1)) == {1: "Z^2", 2: "Z"}
    assert calls
    assert len(calls) <= sum(a.bit_count() for a in g.adj) + g.vertex_count


# ------------------------------------------- graphs: homology without a matrix


@st.composite
def one_dimensional_complexes(draw):
    """Graphs as 1-complexes: drawn, forests, disjoint cycles, isolated points."""
    kind = draw(st.sampled_from(["graph", "forest", "cycles"]))
    if kind == "graph":
        g = draw(graphs(max_n=9))
        return fr.build_complex(g.labels, g.edges())
    labels = [f"u{i}" for i in range(draw(st.integers(0, 10)))]
    if kind == "forest":
        # each vertex hangs below an earlier one or starts a new tree
        parents = [draw(st.integers(-1, i - 1)) for i in range(len(labels))]
        edges = [(labels[p], labels[i]) for i, p in enumerate(parents) if p >= 0]
    else:
        edges, start = [], 0
        for size in draw(st.lists(st.integers(3, 5), max_size=3)):
            if start + size > len(labels):
                break
            ring = labels[start : start + size]
            edges += list(zip(ring, ring[1:] + ring[:1]))
            start += size
    return fr.build_complex(labels, edges)


def check_matrix_free_homology(L):
    h = fr.reduced_homology(L)
    degrees = range(-1, L.dimension + 1)
    assert L.dimension <= 1
    assert not any(g.is_trivial for g in h.by_degree.values())
    assert all(not h.group(k).torsion for k in degrees)
    assert {k: h.group(k).rank for k in degrees if h.group(k).rank} == rational_betti(L)
    # universal coefficients: free parts equal, torsion moves up a degree (none here)
    co = reduced_cohomology_via_cochains(L)
    for k in range(-1, L.dimension + 1):
        assert co.group(k) == fr.AbelianGroup(h.group(k).rank, h.group(k - 1).torsion)


@given(one_dimensional_complexes())
def test_matrix_free_homology_matches_the_oracles(L):
    check_matrix_free_homology(L)


@pytest.mark.parametrize(
    "L,expected",
    [
        (fr.build_complex([], []), {-1: "Z"}),
        (fr.build_complex(["v"], []), {}),
        (fr.build_complex("abc", []), {0: "Z^2"}),
        (fr.build_complex("abcdef", ["ab", "bc", "ca", "de", "ef", "fd"]), {0: "Z", 1: "Z^2"}),
        (fr.build_complex("abcdeg", ["ab", "bc", "cd", "ce"]), {0: "Z"}),
    ],
)
def test_matrix_free_homology_known_graphs(L, expected):
    assert groups_of(fr.reduced_homology(L)) == expected
    check_matrix_free_homology(L)


# ------------------------------------------------------------- cohomology


@pytest.mark.parametrize("name,L", corpus_complexes())
def test_cohomology_routes_agree(name, L):
    assert fr.reduced_cohomology(L) == reduced_cohomology_via_cochains(L)


def test_projective_plane_torsion_moves_up_a_degree():
    L = projective_plane()
    assert groups_of(fr.reduced_homology(L)) == {1: "Z/2"}
    assert groups_of(fr.reduced_cohomology(L)) == {2: "Z/2"}


def test_universal_coefficients_keep_free_parts_and_move_torsion_up():
    z2, z3 = fr.AbelianGroup(0, (2,)), fr.AbelianGroup(0, (3,))
    h = fr.GradedGroups({-1: fr.INTEGERS, 1: fr.AbelianGroup(1, (2,)), 2: z3})
    expected = {-1: fr.INTEGERS, 1: fr.INTEGERS, 2: z2, 3: z3}
    assert fr.universal_coefficients(h).by_degree == expected


@given(graphs(max_n=6))
def test_cohomology_routes_agree_on_random_flag_complexes(g):
    L = fr.clique_complex(g)
    assert fr.reduced_cohomology(L) == reduced_cohomology_via_cochains(L)


# ---------------------------------------------------------- local homology


def test_local_homology_at_octahedron_vertex():
    L = fr.clique_complex(fr.cross_polytope(3))
    lh = fr.local_homology(L, [L.labels[0]])
    assert groups_of(lh) == {2: "Z"}


def test_local_homology_at_a_facet():
    L = fr.clique_complex(fr.cross_polytope(3))
    facet = fr.maximal_simplices(L)[0]
    assert groups_of(fr.local_homology(L, facet)) == {2: "Z"}


def test_local_homology_separates_wheel_hub_from_rim():
    wheel = fr.join(fr.cycle(4), hub())
    L = fr.clique_complex(wheel)
    assert groups_of(fr.local_homology(L, ["h"])) == {2: "Z"}
    assert groups_of(fr.local_homology(L, ["0"])) == {}


def test_local_homology_along_path_vertices():
    L = fr.clique_complex(fr.path(4))
    assert groups_of(fr.local_homology(L, ["0"])) == {}  # endpoint
    assert groups_of(fr.local_homology(L, ["1"])) == {1: "Z"}  # interior


@pytest.mark.parametrize(
    "g,n",
    [(fr.cycle(5), 1), (fr.cross_polytope(3), 2), (fr.icosahedron(), 2)],
)
def test_sphere_complex_vertices_look_like_interior_points(g, n):
    L = fr.clique_complex(g)
    for v in g.labels:
        assert groups_of(fr.local_homology(L, [v])) == {n: "Z"}


# ------------------------------------------------------------ group algebra


def test_abelian_group_str_forms():
    assert str(fr.TRIVIAL_GROUP) == "0"
    assert str(fr.INTEGERS) == "Z"
    assert str(fr.AbelianGroup(0, (2,))) == "Z/2"
    assert str(fr.AbelianGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"


def test_abelian_group_requires_divisibility_chain():
    with pytest.raises(ValueError):
        fr.AbelianGroup(0, (3, 2))
    with pytest.raises(ValueError):
        fr.AbelianGroup(0, (1,))


def test_graded_groups_compare_semantically():
    a = fr.GradedGroups({0: fr.TRIVIAL_GROUP, 1: fr.INTEGERS})
    b = fr.GradedGroups({1: fr.INTEGERS, 5: fr.TRIVIAL_GROUP})
    assert a == b
    assert a.by_degree == b.by_degree == {1: fr.INTEGERS}  # no trivial group is stored
    assert set(a.nontrivial()) == {1}
    assert str(a) == "[1]=Z"
    assert str(fr.GradedGroups({2: fr.INTEGERS, 0: fr.AbelianGroup(0, (2,))})) == "[0]=Z/2, [2]=Z"
    assert not a.is_trivial_everywhere
    assert fr.GradedGroups({3: fr.TRIVIAL_GROUP}).is_trivial_everywhere


def test_graded_groups_shift():
    a = fr.GradedGroups({0: fr.INTEGERS})
    assert set(a.shifted(2).nontrivial()) == {2}


def test_no_flagrecon_module_keeps_a_process_global_cache():
    # reuse lives inside one analysis (NerveSystem, the manifold walk, the sweep)
    cached = set()
    for info in pkgutil.iter_modules(fr.__path__):
        module = importlib.import_module(f"flagrecon.{info.name}")
        for obj in [*vars(fr).values(), *vars(module).values()]:
            if hasattr(obj, "cache_info"):
                cached.add(f"{obj.__module__}.{obj.__qualname__}")
    assert cached == set()

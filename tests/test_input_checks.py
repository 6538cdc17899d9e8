"""Every constructor and entry point refuses malformed input with its own
error: one case per check, each matched by type and message prefix."""

import re

import pytest

import flagrecon as fr

a, b = ("a",), ("b",)

CASES = [
    ("complex_wrong_size_simplex", lambda: fr.SimplicialComplex(((a, b), (a,))),
     ValueError, "level 1 contains a simplex of the wrong size"),
    ("complex_trailing_empty_level", lambda: fr.SimplicialComplex(((a,), ())),
     ValueError, "trailing empty simplex levels are not stored"),
    ("simplex_repeated_vertex", lambda: fr.clique_complex(fr.path(2)).simplex(["0", "0"]),
     ValueError, "repeated vertex in simplex"),
    ("build_complex_duplicate_label", lambda: fr.build_complex(["a", "a"], []),
     ValueError, "duplicate vertex label"),
    ("graph_duplicate_label", lambda: fr.Graph(("a", "a"), (0, 0)),
     ValueError, "duplicate vertex label"),
    ("graph_row_count", lambda: fr.Graph(("a", "b"), (0,)),
     ValueError, "adjacency row count does not match vertex count"),
    ("graph_unknown_bits", lambda: fr.Graph(("a",), (0b10,)),
     ValueError, "adjacency bits reference unknown vertices"),
    ("graph_negative_row", lambda: fr.Graph(("a",), (-1,)),
     ValueError, "adjacency bits reference unknown vertices"),
    ("graph_self_loop", lambda: fr.Graph(("a", "b"), (0b01, 0)),
     ValueError, "self-loop at vertex 'a'"),
    ("path_of_order_zero", lambda: fr.path(0),
     ValueError, "paths need at least 1 vertex"),
    ("complete_of_order_zero", lambda: fr.complete(0),
     ValueError, "complete graphs need at least 1 vertex"),
    ("multipartite_empty_part", lambda: fr.complete_multipartite([0]),
     ValueError, "part sizes must be positive"),
    ("cross_polytope_of_rank_zero", lambda: fr.cross_polytope(0),
     ValueError, "cross polytopes need k >= 1"),
    ("generate_wrong_arity", lambda: fr.generate("cycle", [5, 6]),
     ValueError, "family 'cycle' takes 1 parameter(s), got 2"),
    ("matrix_row_count", lambda: fr.IntegerMatrix(2, 1, ((0,),)),
     ValueError, "row count mismatch"),
    ("group_negative_rank", lambda: fr.AbelianGroup(-1),
     ValueError, "rank must be nonnegative"),
    ("irreducibility_of_the_empty_graph",
     lambda: fr.is_irreducible(fr.NerveSystem(fr.Graph((), ()))),
     ValueError, "empty vertex set"),
    ("crosscheck_of_a_finite_group",
     lambda: fr.lemma_key_crosscheck(fr.NerveSystem(fr.complete(1))),
     ValueError, "crosscheck requires an infinite group"),
]


@pytest.mark.parametrize("build,error,prefix", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_input_raises_its_own_error(build, error, prefix):
    with pytest.raises(error, match="^" + re.escape(prefix)):
        build()

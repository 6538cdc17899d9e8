"""Report assembly: schema conformance, determinism, golden files."""

import sys
from pathlib import Path

import jsonschema
import pytest

import flagrecon as fr
from flagrecon.reports import analysis_report, report_json, report_schema
from oracles import (
    barycentric_subdivision,
    projective_plane,
    small_corpus,
    subdivided,
    suffixed,
)

GOLDEN = Path(__file__).parent / "golden"


def test_shipped_schema_is_itself_valid():
    jsonschema.Draft202012Validator.check_schema(report_schema())


@pytest.mark.parametrize("name,g", small_corpus())
def test_reports_conform_to_the_schema(name, g):
    report = analysis_report(g, source_format="graph6")
    jsonschema.validate(report, report_schema())


@pytest.mark.parametrize(
    "g",
    [
        fr.Graph((), ()),  # empty graph: no manifold or coxeter sections
        fr.complete(1),
        fr.complete(2),  # below the certification threshold
        fr.complete(4),
        fr.path(5),
        fr.disjoint_union(fr.cycle(3), fr.complete(1).relabel({"0": "x"})),
    ],
)
def test_edge_case_reports_conform_to_the_schema(g):
    report = analysis_report(g, source_format="graph6")
    jsonschema.validate(report, report_schema())


def test_schema_version_is_stamped():
    report = analysis_report(fr.cycle(4), source_format="graph6")
    assert report["schema_version"] == fr.SCHEMA_VERSION == 1


def test_report_echoes_its_input():
    g = fr.cycle(5)
    report = analysis_report(g, source_format="edges")
    assert report["input"] == {
        "format": "edges",
        "vertex_count": 5,
        "edge_count": 5,
        "graph6": "Dhc",
    }


def test_every_verdict_names_its_theorem_path():
    for g, path in [
        (fr.cycle(5), "flag complex is a homology manifold"),
        (fr.join(fr.cycle(5), fr.Graph.from_edges(["h"], [])), "group is a virtual Poincare duality group"),
        (fr.path(4), "no implemented criterion applies"),
    ]:
        report = analysis_report(g, source_format="graph6")
        assert report["certificate"]["theorem_path"] == path


def test_small_graph_note_rides_on_the_caveat():
    report = analysis_report(fr.complete(2), source_format="graph6")
    cert = report["certificate"]
    assert cert["verdict"] == "none"
    assert "below 3 vertices" in cert["caveat"]


def test_lemma_key_section_reports_inapplicability():
    report = analysis_report(fr.cycle(4), source_format="graph6")
    lemma = report["coxeter"]["lemma_key"]
    assert lemma == {"applicable": False, "reason": "system is reducible"}
    report = analysis_report(fr.complete(1), source_format="graph6")
    assert report["coxeter"]["lemma_key"]["reason"] == "group is finite"


def test_empty_graph_report_has_null_sections():
    report = analysis_report(fr.Graph((), ()), source_format="graph6")
    assert report["manifold"] is None
    assert report["sphere"] is None
    assert report["coxeter"] is None
    assert report["homology"] == [{"degree": -1, "rank": 1, "torsion": []}]


def test_timings_only_appear_on_request():
    g = fr.cycle(5)
    silent = analysis_report(g, source_format="graph6")
    timed = analysis_report(g, source_format="graph6", with_timings=True)
    assert silent["timings"] is None
    assert set(timed["timings"]) == {
        "clique_complex",
        "homology",
        "manifold",
        "coxeter",
        "certificate",
    }
    assert all(isinstance(v, float) and v >= 0 for v in timed["timings"].values())
    jsonschema.validate(timed, report_schema())


def test_serialisation_is_deterministic():
    g = fr.torus_grid(4, 4)
    a = report_json(analysis_report(g, source_format="graph6"))
    b = report_json(analysis_report(g, source_format="graph6"))
    assert a == b
    assert a.endswith("\n")


@pytest.mark.parametrize(
    "fname,g",
    [
        ("c5.json", fr.cycle(5)),
        ("k222.json", fr.cross_polytope(3)),
        ("torus44.json", fr.torus_grid(4, 4)),
        ("cone_c5.json", fr.join(fr.cycle(5), fr.Graph(("a",), (0,)))),
        ("k4.json", fr.complete(4)),
        ("sd_rp2.json", barycentric_subdivision(projective_plane())),  # H~1 = Z/2
    ],
)
def test_golden_reports_are_byte_stable(fname, g):
    expected = (GOLDEN / fname).read_text(encoding="utf-8")
    assert report_json(analysis_report(g, source_format="graph6")) == expected


@pytest.mark.parametrize(
    "g,dim",
    [
        (fr.Graph((), ()), -1),
        (fr.complete(1), 0),
        (fr.Graph.from_edges(["a", "b"], []), 0),
        (fr.complete(2), 1),
        (fr.cycle(5), 1),
        (fr.complete(4), 3),
    ],
    ids=["empty", "K1", "2K1", "K2", "C5", "K4"],
)
def test_report_homology_lists_every_degree_from_minus_one_to_the_dimension(g, dim):
    report = analysis_report(g, source_format="graph6")
    assert report["flag_complex"]["dimension"] == dim
    assert [entry["degree"] for entry in report["homology"]] == list(range(-1, dim + 1))


def count_calls(monkeypatch, names):
    """Count calls to the named flagrecon functions, from every module that binds them."""
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # every module binds its own copy of an imported name, so each is wrapped
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "flagrecon":
            continue
        for name in names:
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counting(name, vars(mod)[name]))
    return counts


def record_homologies(monkeypatch):
    """The flag complexes handed to flag_homology, as (rows, mask) pairs, from every module
    that binds it, in call order; every flag complex's homology goes through it."""
    received = []

    def recording(fn):
        def wrapper(rows, mask):
            received.append((tuple(rows), mask))
            return fn(rows, mask)

        return wrapper

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "flagrecon" and "flag_homology" in vars(mod):
            monkeypatch.setattr(mod, "flag_homology", recording(mod.flag_homology))
    return received


def test_one_report_computes_each_fact_once(monkeypatch):
    expected = {
        "clique_complex": 1,  # the nerve, level by level from the graph's bitsets
        "build_complex": 0,  # no complex here is given by its faces
        "is_homology_manifold": 1,
        "is_generalized_homology_sphere": 1,
        "is_virtual_pd": 1,
        "condition3_vanishing": 1,
        "link": 0,
        "links": 0,  # the nerve records its rows: every link of the torus is read off counts
    }
    counts = count_calls(monkeypatch, expected)
    analysis_report(fr.torus_grid(5, 5), source_format="graph6")
    assert counts == expected


def test_a_theorem_1_core_is_a_clique_complex(monkeypatch):
    # the cone over the octahedron: its core, the octahedron, is the one full subcomplex
    # built, and it comes from the core's subgraph, with no graph rebuilt from its edges
    counts = count_calls(monkeypatch, ["clique_complex", "one_skeleton"])
    report = analysis_report(fr.complete_multipartite([1, 2, 2, 2]), source_format="graph6")
    assert (report["certificate"]["verdict"], report["certificate"]["dimension"]) == ("theorem_1", 3)
    assert report["coxeter"]["virtual_pd"]["core_sphere"]["dimension"] == 2
    assert counts == {"clique_complex": 2, "one_skeleton": 0}  # the nerve, then the core
    assert fr.full_subcomplex(projective_plane(), ["1", "2", "3"]).rows is None


def test_one_report_decides_irreducibility_once(monkeypatch):
    # the coxeter section and the lemma-key crosscheck both read NerveSystem.irreducible
    # and neither builds the complement graph: the search runs on the bitsets
    counts = count_calls(monkeypatch, ["is_irreducible", "complement"])
    report = analysis_report(fr.cycle(6), source_format="graph6")
    assert report["coxeter"]["lemma_key"]["applicable"]
    assert counts == {"is_irreducible": 1, "complement": 0}


def test_a_non_pure_report_builds_no_link(monkeypatch):
    # a triangle with a pendant edge: the edge is a facet below the dimension
    g = fr.Graph.from_edges("0123", [("0", "1"), ("1", "2"), ("0", "2"), ("2", "3")])
    counts = count_calls(monkeypatch, ["link", "links"])
    report = analysis_report(g, source_format="graph6")
    assert report["manifold"]["witness"]["simplex"] == ["2", "3"]
    assert counts == {"link": 0, "links": 0}


def test_a_non_pure_report_names_the_facet_below_the_dimension():
    # the paw: triangle abc and the pendant edge cd, whose empty link gives Z in degree 1
    g = fr.Graph.from_edges("abcd", [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])
    report = analysis_report(g, source_format="graph6")
    assert report["manifold"]["witness"] == {
        "simplex": ["c", "d"],
        "local_homology": [{"degree": 1, "rank": 1, "torsion": []}],
        "detail": "maximal simplex of dimension 1 in a complex tested at dimension 2",
    }


@pytest.mark.parametrize(
    "g,subsets,built",
    [
        (fr.cross_polytope(6), 728, 0),  # every remainder dismantles to a point
        (fr.complete(11), 2047, 1),  # only the empty remainder, T = V
        (fr.icosahedron(), 62, 12),  # a vertex remainder is a disc with no dominated vertex
    ],
)
def test_the_sweep_builds_only_cores_that_are_not_a_point(monkeypatch, g, subsets, built):
    # each core goes to the kernel as a bitset, with no subcomplex built
    ns = fr.NerveSystem.from_graph(g)
    counts = count_calls(monkeypatch, ["flag_homology", "full_subcomplex"])
    assert fr.condition3_vanishing(ns).subsets_checked == subsets
    assert counts == {"flag_homology": built, "full_subcomplex": 0}


def test_card_recovery_builds_one_complex(monkeypatch):
    g = fr.torus_grid(5, 5)
    card = fr.vertex_deleted(g, g.labels[0])
    counts = count_calls(monkeypatch, ["clique_complex", "build_complex", "link", "links"])
    assert fr.are_isomorphic(fr.reconstruct_from_card(card, 2), g)
    # the card's nerve; its vertex links are read off its edges and triangles
    assert counts == {"clique_complex": 1, "build_complex": 0, "link": 0, "links": 0}


def test_card_recovery_in_dimension_3_reads_the_vertex_links_off_the_rows(monkeypatch):
    g = fr.cross_polytope(4)
    card = fr.vertex_deleted(g, g.labels[0])
    counts = count_calls(monkeypatch, ["clique_complex", "build_complex", "link", "links"])
    assert fr.are_isomorphic(fr.reconstruct_from_card(card, 3), g)
    # the vertex links of a card of dimension 3 go to the kernel as N(v), with no complex built
    assert counts == {"clique_complex": 1, "build_complex": 0, "link": 0, "links": 0}


def test_the_walk_on_a_simplex_computes_one_link(monkeypatch):
    # complete(12)'s nerve is one 11-simplex: the link of vertex 0, a 10-simplex, is the
    # witness, and no other link is built before it
    L = fr.clique_complex(fr.complete(12))
    counts = count_calls(monkeypatch, ["flag_homology", "links"])
    assert fr.is_homology_manifold(L).witness.simplex == ("0",)
    assert counts == {"flag_homology": 1, "links": 0}


@pytest.mark.parametrize(
    "g,n",
    [
        (fr.join(fr.cycle(5), suffixed(fr.cycle(5), "'")), 3),
        (fr.cross_polytope(4), 3),
        (fr.cross_polytope(5), 4),
    ],
    ids=["C5*C5", "cross4", "cross5"],
)
def test_card_recovery_above_dimension_2_reaches_no_matrix(monkeypatch, g, n):
    # every vertex link of a card is a sphere or a disc, which pairs off whole
    counts = count_calls(monkeypatch, ["_smith"])
    for v in g.labels:
        assert fr.are_isomorphic(fr.reconstruct_from_card(fr.vertex_deleted(g, v), n), g)
    assert counts == {"_smith": 0}


@pytest.mark.parametrize(
    "g",
    [
        fr.torus_grid(5, 5),  # the nerve: the report's global homology and the sphere verdict
        fr.cross_polytope(4),  # equal links: antipodal vertices share theirs
        subdivided(fr.icosahedron(), 6, 1),  # equal cores: 2-dimensional ones, over and over
    ],
)
def test_one_report_never_computes_the_homology_of_one_complex_twice(monkeypatch, g):
    received = record_homologies(monkeypatch)
    analysis_report(g, source_format="graph6")
    assert received
    assert len(set(received)) == len(received)


@pytest.mark.parametrize("g", [fr.cycle(5), fr.torus_grid(5, 5), fr.icosahedron()])
def test_group_cohomology_reads_the_nerves_kept_homology(monkeypatch, g):
    ns = fr.NerveSystem(g)
    ns.homology  # computed once here, and kept on the system
    received = record_homologies(monkeypatch)
    for i in range(ns.nerve.dimension + 3):
        fr.coxeter_cohomology_if_fg(ns, i)
    assert all(mask != (1 << g.vertex_count) - 1 for _, mask in received)


@pytest.mark.parametrize(
    "g,degrees,sweeps",
    [
        (fr.icosahedron(), range(5), 1),  # condition 3 holds: every degree is read off the nerve
        (fr.torus_grid(5, 5), [2], 1),  # the witness has degree 1: not finitely generated
        (fr.torus_grid(5, 5), [2, 3], 2),  # degree 3 takes a sweep of its own
    ],
    ids=["icosa", "torus-witness", "torus-other"],
)
def test_group_cohomology_sweeps_again_only_where_condition3_leaves_it_open(
    monkeypatch, g, degrees, sweeps
):
    ns = fr.NerveSystem(g)
    counts = count_calls(monkeypatch, ["_complement_cohomologies"])
    for i in degrees:
        fr.coxeter_cohomology_if_fg(ns, i)
    assert counts == {"_complement_cohomologies": sweeps}


def test_nothing_carries_over_to_the_next_report(monkeypatch):
    # flag_homology runs once for each flag complex whose homology is computed
    g = fr.torus_grid(5, 5)
    counts = count_calls(monkeypatch, ["flag_homology"])
    first = analysis_report(g, source_format="graph6")
    computed = counts["flag_homology"]
    assert computed and analysis_report(g, source_format="graph6") == first
    assert counts["flag_homology"] == 2 * computed

"""Report assembly: schema conformance, determinism, golden files."""

import sys
from pathlib import Path

import jsonschema
import pytest

import flagrecon as fr
from flagrecon.reports import analysis_report, report_json, report_schema
from oracles import small_corpus

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
    ],
)
def test_golden_reports_are_byte_stable(fname, g):
    expected = (GOLDEN / fname).read_text(encoding="utf-8")
    assert report_json(analysis_report(g, source_format="graph6")) == expected


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


def test_one_report_computes_each_fact_once(monkeypatch):
    expected = {
        "clique_complex": 1,  # the nerve, level by level from the graph's bitsets
        "build_complex": 0,  # links and subcomplexes filter the nerve's levels
        "is_homology_manifold": 1,
        "is_generalized_homology_sphere": 1,
        "is_virtual_pd": 1,
        "condition3_vanishing": 1,
        "link": 0,
        "links": 3,  # one pass per dimension of the 5x5 torus, k = 0, 1, 2
    }
    counts = count_calls(monkeypatch, expected)
    analysis_report(fr.torus_grid(5, 5), source_format="graph6")
    assert counts == expected


@pytest.mark.parametrize(
    "g,subsets,built",
    [
        (fr.cross_polytope(6), 728, 0),  # every remainder dismantles to a point
        (fr.complete(11), 2047, 1),  # only the empty remainder, T = V
        (fr.icosahedron(), 62, 12),  # a vertex remainder is a disc with no dominated vertex
    ],
)
def test_the_sweep_builds_only_cores_that_are_not_a_point(monkeypatch, g, subsets, built):
    ns = fr.NerveSystem.from_graph(g)
    counts = count_calls(monkeypatch, ["full_subcomplex"])
    assert fr.condition3_vanishing(ns).subsets_checked == subsets
    assert counts == {"full_subcomplex": built}


def test_card_recovery_builds_one_complex(monkeypatch):
    g = fr.torus_grid(5, 5)
    card = fr.vertex_deleted(g, g.labels[0])
    counts = count_calls(monkeypatch, ["clique_complex", "build_complex", "link", "links"])
    assert fr.are_isomorphic(fr.reconstruct_from_card(card, 2), g)
    # the card's nerve, and its vertex links in one pass
    assert counts == {"clique_complex": 1, "build_complex": 0, "link": 0, "links": 1}

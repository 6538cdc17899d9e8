"""End-to-end command-line checks, run in process through main()."""

import io
import json
import random
from pathlib import Path

import jsonschema
import pytest

import flagrecon as fr
from flagrecon.cli import main


def run(monkeypatch, capsys, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_certified_graph_exits_zero(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["analyze"], stdin="Dhc")
        assert code == 0
        assert err == ""
        assert "graph: 5 vertices, 5 edges (Dhc)" in out
        assert "certificate: theorem_2 at dimension 1" in out

    def test_uncertified_graph_exits_one(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["analyze"], stdin="Ch")
        assert code == 1
        assert "certificate: none" in out

    def test_malformed_input_exits_two(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["analyze"], stdin="not a graph")
        assert code == 2
        assert err.startswith("error:")

    def test_graph6_header_byte_127_exits_two(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["analyze"], stdin="\x7f" + "?" * 336)
        assert code == 2
        assert "header byte 127" in err

    def test_graph6_with_a_separator_exits_two(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["analyze"], stdin="\x1cA_\x85")
        assert code == 2
        assert "ASCII" in err  # the separator is kept, and so is the non-ASCII \x85

    def test_missing_file_exits_two(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["analyze", "/no/such/file"])
        assert code == 2
        assert "cannot read" in err

    def test_reads_edge_lists_from_files(self, monkeypatch, capsys, tmp_path):
        f = tmp_path / "pentagon.edges"
        f.write_text("a b\nb c\nc d\nd e\ne a\n")
        code, out, err = run(monkeypatch, capsys, ["analyze", str(f), "--format", "edges"])
        assert code == 0
        assert "certificate: theorem_2 at dimension 1" in out

    def test_json_report_is_schema_valid_and_stable(self, monkeypatch, capsys, tmp_path):
        dest = tmp_path / "r.json"
        run(monkeypatch, capsys, ["analyze", "--json", str(dest)], stdin="Dhc")
        first = dest.read_bytes()
        jsonschema.validate(json.loads(first), fr.report_schema())
        run(monkeypatch, capsys, ["analyze", "--json", str(dest)], stdin="Dhc")
        assert dest.read_bytes() == first

    def test_json_into_a_missing_directory_exits_two(self, monkeypatch, capsys, tmp_path):
        dest = tmp_path / "no" / "r.json"
        code, out, err = run(monkeypatch, capsys, ["analyze", "--json", str(dest)], stdin="Dhc")
        assert code == 2
        assert err == f"error: cannot write {dest}: No such file or directory\n"

    def test_json_onto_a_directory_exits_two(self, monkeypatch, capsys, tmp_path):
        code, out, err = run(monkeypatch, capsys, ["analyze", "--json", str(tmp_path)], stdin="Dhc")
        assert code == 2
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    def test_timings_flag_fills_the_json_section(self, monkeypatch, capsys, tmp_path):
        dest = tmp_path / "r.json"
        run(monkeypatch, capsys, ["analyze", "--timings", "--json", str(dest)], stdin="Dhc")
        report = json.loads(dest.read_text())
        assert report["timings"] is not None
        assert all(isinstance(v, float) for v in report["timings"].values())

    def test_a_complex_over_the_face_budget_exits_two(self, monkeypatch, capsys):
        _, k17, _ = run(monkeypatch, capsys, ["gen", "complete", "17"])
        code, out, err = run(monkeypatch, capsys, ["analyze"], stdin=k17)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(" over MAX_FACES = 65536\n")

    def test_max_dim_is_not_an_analyze_flag(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run(monkeypatch, capsys, ["analyze", "--max-dim", "2"], stdin="Dhc")
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-dim" in capsys.readouterr().err

    def test_human_summary_matches_the_report(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["analyze"], stdin="EhEG")
        assert "flag complex: dimension 1, f-vector (6, 6)" in out
        assert "homology manifold: True (dimension 1)" in out
        assert "lemma-key crosscheck: consistent=True" in out


class TestDeck:
    def test_cycle_deck_is_one_path_class(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["deck"], stdin="Cl")
        assert (code, out) == (0, "BW 4\n")

    def test_path_deck_has_two_classes(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["deck"], stdin="Ch")
        assert (code, out) == (0, "BG 2\nBW 2\n")

    def test_multiplicities_sum_to_the_order(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["deck"], stdin="EhEG")
        assert sum(int(line.split()[1]) for line in out.splitlines()) == 6

    def test_search_over_budget_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(fr.graphs, "SEARCH_NODE_BUDGET", 3)
        code, out, err = run(monkeypatch, capsys, ["deck"], stdin="E]~o")
        assert code == 2
        assert err.startswith("error: canonical labelling of a 6-vertex graph")

    @pytest.mark.parametrize("n", [64, 2000])
    def test_cards_past_62_vertices_exit_two_before_any_labelling(self, n, monkeypatch, capsys):
        monkeypatch.setattr("flagrecon.cli.deck", lambda g: pytest.fail("the deck was labelled"))
        edges = "".join(f"{i} {(i + 1) % n}\n" for i in range(n))
        code, out, err = run(monkeypatch, capsys, ["deck", "--format", "edges"], stdin=edges)
        assert (code, out) == (2, "")
        assert err == (
            f"error: cards of a {n}-vertex graph have {n - 1} vertices; "
            "short-form graph6 carries at most 62 vertices\n"
        )

    def test_cards_of_62_vertices_are_written(self, monkeypatch, capsys):
        edges = "".join(f"{i} {(i + 1) % 63}\n" for i in range(63))
        code, out, err = run(monkeypatch, capsys, ["deck", "--format", "edges"], stdin=edges)
        card = fr.graph_from_canonical_form(fr.canonical_form(fr.path(62)))
        assert (code, out) == (0, f"{fr.emit_graph6(card)} 63\n")

    def test_a_62_vertex_perfect_matching_is_one_card_class(self, tmp_path, capsys):
        path = tmp_path / "matching.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(0, 62, 2)))
        assert main(["deck", "--format", "edges", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].endswith(" 62")


def pinned_decks():
    """(graph6 input, deck output) pairs from ``golden/decks.txt``: the
    deck_roundtrip benchmark graphs of seeds 1, 2, 3 and 7, and every graph
    on at most 6 vertices."""
    blocks = (Path(__file__).parent / "golden" / "decks.txt").read_text().split("\n>")[1:]
    return [(text, deck.rstrip("\n") + "\n") for text, deck in (b.split("\n", 1) for b in blocks)]


def test_deck_output_is_pinned(monkeypatch, capsys):
    pinned = pinned_decks()
    assert len(pinned) == 226
    rng = random.Random(12)
    for text, expected in pinned:
        code, out, err = run(monkeypatch, capsys, ["deck"], stdin=text)
        assert (code, out, err) == (0, expected, ""), text
        g = fr.parse_graph6(text)
        if g.vertex_count <= 6:  # the deck is a canonical multiset: any vertex order gives it
            order = list(g.labels)
            rng.shuffle(order)
            shuffled = fr.emit_graph6(fr.Graph.from_edges(order, g.edges()))
            assert run(monkeypatch, capsys, ["deck"], stdin=shuffled)[1] == expected, text


class TestReconstruct:
    def test_round_trips_a_cycle_card(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["reconstruct", "--dim", "1"], stdin="DDW")
        assert code == 0
        assert fr.are_isomorphic(fr.parse_graph6(out.strip()), fr.cycle(6))

    def test_round_trips_an_octahedron_card(self, monkeypatch, capsys):
        card = fr.vertex_deleted(fr.cross_polytope(3), "0")
        code, out, err = run(
            monkeypatch, capsys, ["reconstruct", "--dim", "2"], stdin=fr.emit_graph6(card)
        )
        assert code == 0
        assert fr.are_isomorphic(fr.parse_graph6(out.strip()), fr.cross_polytope(3))

    def test_dim_flag_is_required(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run(monkeypatch, capsys, ["reconstruct"], stdin="DDW")
        assert exc.value.code == 2

    def test_wrong_dimension_exits_two(self, monkeypatch, capsys):
        # DDW is the path on five vertices, whose clique complex has dimension 1
        code, out, err = run(monkeypatch, capsys, ["reconstruct", "--dim", "2"], stdin="DDW")
        assert (code, out) == (2, "")
        assert err == "error: the card's clique complex has dimension 1, not 2\n"

    def test_a_clique_past_the_dimension_exits_two(self, monkeypatch, capsys):
        k7 = fr.emit_graph6(fr.complete(7))
        code, out, err = run(monkeypatch, capsys, ["reconstruct", "--dim", "2"], stdin=k7)
        assert (code, out) == (2, "")
        assert err == "error: the card's clique complex has dimension 6, not 2\n"

    def test_max_dim_is_not_a_reconstruct_flag(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run(monkeypatch, capsys, ["reconstruct", "--max-dim", "2", "--dim", "2"], stdin="DDW")
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-dim" in capsys.readouterr().err


class TestScan:
    def test_order_two_finds_the_classical_pair(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["scan", "--max-n", "2"])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "classes scanned: 2"
        assert lines[1] == "hypomorphic groups: 1"
        assert lines[2] == "A? A_"

    def test_order_four_is_clean(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["scan", "--max-n", "4"])
        assert code == 0
        assert "classes scanned: 11" in out
        assert "hypomorphic groups: 0" in out

    def test_order_eight_is_clean(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["scan", "--max-n", "8"])
        assert (code, out) == (0, "classes scanned: 12346\nhypomorphic groups: 0\n")

    def test_corpus_file_deduplicates_isomorphs(self, monkeypatch, capsys, tmp_path):
        relabeled = fr.cycle(5).relabel({"0": "4", "1": "1", "2": "2", "3": "3", "4": "0"})
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(f"Dhc\n{fr.emit_graph6(relabeled)}\nCl\n")
        code, out, err = run(monkeypatch, capsys, ["scan", str(corpus)])
        assert code == 0
        assert "note: dropped 1 duplicate isomorphism class(es)" in out
        assert "classes scanned: 2" in out

    def test_unicode_line_break_inside_a_line_exits_two(self, monkeypatch, capsys, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("A_\x1cA_\n")
        code, out, err = run(monkeypatch, capsys, ["scan", str(corpus)])
        assert code == 2
        assert err.startswith("error:")

    def test_crlf_corpus_scans_line_by_line(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["scan", "-"], stdin="Dhc\r\nCl\r\n")
        assert code == 0
        assert "classes scanned: 2" in out
        assert "dropped" not in out

    @pytest.mark.parametrize("text", ["?\n", "A_\n?\nDhc\nCl\n"], ids=["alone", "mixed"])
    def test_empty_graph_in_the_corpus_exits_two(self, monkeypatch, capsys, tmp_path, text):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(text)
        code, out, err = run(monkeypatch, capsys, ["scan", str(corpus)])
        assert code == 2
        assert err == "error: decks need at least one vertex\n"

    def test_order_bound_violation_exits_two(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["scan", "--max-n", "0"])
        assert code == 2
        assert err.startswith("error:")


class TestGen:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["gen", "cycle", "5"], "Dhc\n"),
            (["gen", "cycle", "6"], "EhEG\n"),
            (["gen", "path", "4"], "Ch\n"),
            (["gen", "complete", "3"], "Bw\n"),
            (["gen", "cross_polytope", "2"], "C]\n"),
        ],
    )
    def test_known_family_strings(self, monkeypatch, capsys, argv, expected):
        code, out, err = run(monkeypatch, capsys, argv)
        assert (code, out) == (0, expected)

    def test_pipes_into_analyze(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["gen", "cross_polytope", "3"])
        code, out, err = run(monkeypatch, capsys, ["analyze"], stdin=out)
        assert code == 0
        assert "certificate: theorem_2 at dimension 2" in out

    def test_unknown_family_is_an_argparse_error(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run(monkeypatch, capsys, ["gen", "moebius", "5"])
        assert exc.value.code == 2

    def test_non_integer_parameter_exits_two(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["gen", "cycle", "five"])
        assert code == 2
        assert "parameters must be integers" in err

    def test_out_of_range_parameter_exits_two(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["gen", "torus_grid", "3", "5"])
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "params", [["complete", "1000000000"], ["torus_grid", "40", "40"], ["path", "63"]]
    )
    def test_oversized_family_exits_two_before_building(self, monkeypatch, capsys, params):
        def refuse(*args):
            raise AssertionError("the family was built")

        monkeypatch.setattr("flagrecon.cli.generate", refuse)
        code, out, err = run(monkeypatch, capsys, ["gen", *params])
        assert (code, out) == (2, "")
        assert "short-form graph6 carries at most 62 vertices" in err

    def test_the_largest_short_form_family_member_is_emitted(self, monkeypatch, capsys):
        code, out, err = run(monkeypatch, capsys, ["gen", "complete", "62"])
        assert code == 0 and fr.parse_graph6(out) == fr.complete(62)

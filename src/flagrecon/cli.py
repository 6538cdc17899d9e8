"""Command-line interface.

Subcommands: analyze, deck, reconstruct, scan, gen.  Exit codes follow the
analyze convention throughout: 0 for a definite positive outcome, 1 for a
sound-but-negative one (no certificate, hypomorphic groups found), 2 for
malformed input or violated preconditions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .formats import FormatError, emit_graph6, graph6_from_canonical_form, parse_edge_list
from .formats import parse_graph6
from .graphs import FAMILIES, canonical_form, generate
from .reconstruction import (
    VERDICT_NONE,
    brute_force_oracle,
    deck,
    enumerate_graphs,
    reconstruct_from_card,
)
from .reports import analysis_report, report_json

__all__ = ["main"]


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse_graph(text: str, fmt: str):
    if fmt == "g6":
        return parse_graph6(text)
    return parse_edge_list(text)


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _parse_graph(_read_input(args.input), args.format)
    report = analysis_report(
        g,
        source_format="graph6" if args.format == "g6" else "edges",
        with_timings=args.timings,
    )
    if args.json:
        try:
            Path(args.json).write_text(report_json(report))
        except OSError as exc:
            raise FormatError(f"cannot write {args.json}: {exc.strerror or exc}") from None
    flag = report["flag_complex"]
    print(
        f"graph: {report['input']['vertex_count']} vertices, "
        f"{report['input']['edge_count']} edges ({report['input']['graph6']})"
    )
    print(
        f"flag complex: dimension {flag['dimension']}, f-vector {tuple(flag['f_vector'])}, "
        f"euler characteristic {flag['euler_characteristic']}"
    )
    hom = ", ".join(
        f"H~[{h['degree']}] rank {h['rank']}"
        + (f" torsion {tuple(h['torsion'])}" if h["torsion"] else "")
        for h in report["homology"]
    )
    print(f"homology: {hom}")
    manifold = report["manifold"]
    if manifold is not None:
        line = f"homology manifold: {manifold['is_manifold']} (dimension {manifold['dimension']})"
        if manifold["witness"]:
            line += f"; witness {tuple(manifold['witness']['simplex'])}"
        print(line)
    sphere = report["sphere"]
    if sphere is not None:
        print(f"generalized homology sphere: {sphere['is_sphere']}")
    cox = report["coxeter"]
    if cox is not None:
        print(
            f"coxeter system: finite={cox['is_finite']} irreducible={cox['is_irreducible']} "
            f"virtual_pd={cox['virtual_pd']['is_vpd']}"
            + (
                f" (dimension {cox['virtual_pd']['dimension']})"
                if cox["virtual_pd"]["is_vpd"]
                else ""
            )
        )
        print(f"condition-3 vanishing: {cox['condition3']['holds']}")
        lemma = cox["lemma_key"]
        if lemma["applicable"]:
            print(f"lemma-key crosscheck: consistent={lemma['consistent']}")
    cert = report["certificate"]
    if cert["verdict"] == VERDICT_NONE:
        print(f"certificate: none ({cert['caveat']})")
        return 1
    print(
        f"certificate: {cert['verdict']} at dimension {cert['dimension']} "
        f"({cert['theorem_path']})"
    )
    return 0


def _cmd_deck(args: argparse.Namespace) -> int:
    g = _parse_graph(_read_input(args.input), args.format)
    if g.vertex_count > 63:  # each card loses one vertex, and is written as graph6
        raise FormatError(
            f"cards of a {g.vertex_count}-vertex graph have {g.vertex_count - 1} vertices; "
            "short-form graph6 carries at most 62 vertices"
        )
    for card, mult in sorted((graph6_from_canonical_form(c), m) for c, m in deck(g).cards.items()):
        print(f"{card} {mult}")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    card = _parse_graph(_read_input(args.input), args.format)
    recovered = reconstruct_from_card(card, args.dim)
    print(emit_graph6(recovered))
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.corpus is not None:
        # only "\n" ends a line; parse_graph6 rejects any other control byte
        text = _read_input(args.corpus)
        lines = [ln for ln in text.split("\n") if ln.strip(" \t\r\x0b\x0c")]
        seen: dict[bytes, object] = {}
        for ln in lines:
            g = parse_graph6(ln)
            seen.setdefault(canonical_form(g), g)
        graphs = list(seen.values())
        dropped = len(lines) - len(graphs)
        if dropped:
            print(f"note: dropped {dropped} duplicate isomorphism class(es)")
    else:
        graphs = enumerate_graphs(args.max_n)
    groups = brute_force_oracle(graphs)
    print(f"classes scanned: {len(graphs)}")
    print(f"hypomorphic groups: {len(groups)}")
    for group in groups:
        print(" ".join(sorted(emit_graph6(g) for g in group)))
    return 0 if not groups else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        params = [int(p) for p in args.params]
    except ValueError:
        raise FormatError("family parameters must be integers") from None
    if sum(params) > 62:  # no family has fewer vertices than its parameters add up to
        raise FormatError("short-form graph6 carries at most 62 vertices")
    print(emit_graph6(generate(args.family, params)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagrecon",
        description="Certify graph reconstructibility through flag-complex topology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", nargs="?", default="-", help="input file, or - for stdin")
        p.add_argument(
            "--format",
            choices=("g6", "edges"),
            default="g6",
            help="input format (default graph6)",
        )

    p = sub.add_parser("analyze", help="full analysis report for one graph")
    add_graph_input(p)
    p.add_argument("--json", metavar="PATH", help="also write the JSON report here")
    p.add_argument("--timings", action="store_true", help="fill per-stage timings (ms)")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("deck", help="card multiset as graph6 lines with multiplicities")
    add_graph_input(p)
    p.set_defaults(fn=_cmd_deck)

    p = sub.add_parser("reconstruct", help="recover a graph from one card")
    add_graph_input(p)
    p.add_argument("--dim", type=int, required=True, help="manifold dimension n >= 1")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("scan", help="search a corpus for hypomorphic non-isomorphic groups")
    p.add_argument("corpus", nargs="?", default=None, help="graph6 file, one line per graph")
    p.add_argument(
        "--max-n",
        type=int,
        default=7,
        help="without a corpus, scan all classes of exactly this order (default 7)",
    )
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("gen", help="emit a named family member as graph6")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("params", nargs="*", help="integer parameters for the family")
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

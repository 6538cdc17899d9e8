"""Seeded corpora for the three benchmark workloads, and the checks on their outputs.

Every input is built from the workload seed alone, so a seed names a corpus.
Nothing here is timed: the parent process builds the corpus before any pass
starts and checks the outputs after every pass has ended.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import flagrecon as fr


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _graph(adj: list[int]) -> fr.Graph:
    return fr.Graph(tuple(str(i) for i in range(len(adj))), tuple(adj))


def subdivide_edges(g: fr.Graph, steps: int, rng: random.Random) -> fr.Graph:
    """Apply ``steps`` flag-preserving edge subdivisions at edges drawn by ``rng``.

    The new vertex is joined to both ends of the edge and to their common
    neighbours, and the edge itself is removed.  On a flag complex this is
    a stellar subdivision of the edge, so the result is flag again and has
    the same PL type (Lutz-Nevo 2016).  Each edge is drawn among those whose
    ends have the fewest common neighbours, that is the shortest links:
    every step then grows the f-vector by the same amount, so the seed
    changes the shape of the complex but not its size.
    """
    adj = list(g.adj)
    for _ in range(steps):
        edges = [(u, v) for u in range(len(adj)) for v in _bits(adj[u]) if v > u]
        shortest = min((adj[u] & adj[v]).bit_count() for u, v in edges)
        u, v = rng.choice([(u, v) for u, v in edges if (adj[u] & adj[v]).bit_count() == shortest])
        w = len(adj)
        star = (adj[u] & adj[v]) | 1 << u | 1 << v
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        for x in _bits(star):
            adj[x] |= 1 << w
        adj.append(star)
    return _graph(adj)


def gnp(n: int, p: float, rng: random.Random) -> fr.Graph:
    """Erdos-Renyi G(n, p): each of the n(n-1)/2 edges independently with probability p."""
    adj = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return _graph(adj)


def gnp_first_subset_exit(n: int, p: float, rng: random.Random) -> fr.Graph:
    """A G(n, p) draw whose condition-3 sweep fails at its first subset.

    That is the part random graphs play in the corpus: their time goes to
    the global homology and the link walk.  A draw with a universal vertex,
    say, sweeps on through dozens of cone subsets and takes up to twenty
    times as long, which would let one unlucky seed swing a whole pass;
    such draws are redrawn.
    """
    while True:
        g = gnp(n, p, rng)
        ns = fr.NerveSystem.from_graph(g)
        if fr.condition3_vanishing(ns).subsets_checked == 1:
            return g


def edge_list(g: fr.Graph) -> str:
    """The graph in the CLI's ``edges`` format, vertices named by index.

    Graphs above 62 vertices have no short-form graph6, so they go to the
    CLI this way.
    """
    return "".join(f"{u} {v}\n" for u in range(g.vertex_count) for v in _bits(g.adj[u]) if v > u)


def c5_join_c5() -> fr.Graph:
    """The join of two pentagons: a flag 3-sphere on 10 vertices."""
    c5 = fr.cycle(5)
    return fr.join(c5, c5.relabel({v: f"b{v}" for v in c5.labels}))


def _sphere(d: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    return {d: (1, ())}


TORUS = {1: (2, ()), 2: (1, ())}
CONTRACTIBLE: dict[int, tuple[int, tuple[int, ...]]] = {}


@dataclass
class Item:
    """One benchmark item: a CLI call (or a deck and its reconstructs) on one graph.

    ``text`` is the graph as the CLI reads it on standard input, in format
    ``fmt`` (``g6`` or ``edges``).  ``homology`` maps each degree of
    nontrivial reduced homology to (rank, torsion); None means the groups
    are not known in advance.
    ``verdict`` is the expected (certificate, dimension), when known.
    """

    id: str
    kind: str
    text: str
    homology: dict[int, tuple[int, tuple[int, ...]]] | None = None
    verdict: tuple[str, int | None] | None = None
    dim: int | None = None
    classes: int | None = None
    fmt: str = "g6"

    def task(self) -> dict:
        """What the pass process needs to run the item."""
        return {"id": self.id, "kind": self.kind, "text": self.text, "fmt": self.fmt,
                "dim": self.dim}

    def graph(self) -> fr.Graph:
        return fr.parse_graph6(self.text) if self.fmt == "g6" else fr.parse_edge_list(self.text)


def analyze_corpus(seed: int, small: bool = False) -> list[Item]:
    """Flag spheres, non-sphere manifolds and non-manifolds, through ``analyze --json``."""
    rng = random.Random(seed)
    if small:
        named = [
            ("cycle6", fr.cycle(6), _sphere(1), ("theorem_2", 1)),
            ("octahedron", fr.cross_polytope(3), _sphere(2), ("theorem_2", 2)),
            ("sd_octahedron", subdivide_edges(fr.cross_polytope(3), 2, rng), _sphere(2),
             ("theorem_2", 2)),
            ("complete4", fr.complete(4), CONTRACTIBLE, ("none", None)),
            ("gnp_7_0.5", gnp_first_subset_exit(7, 0.5, rng), None, None),
        ]
    else:
        # The subdivision counts keep the item sizes apart around the middle
        # of the corpus, so that the median item is one input
        # (sd_icosahedron) and not a jump between two.
        named = [
            ("cross_polytope5", fr.cross_polytope(5), _sphere(4), ("theorem_2", 4)),
            ("c5_join_c5", c5_join_c5(), _sphere(3), ("theorem_2", 3)),
            ("icosahedron", fr.icosahedron(), _sphere(2), ("theorem_2", 2)),
            ("sd_cross_polytope4", subdivide_edges(fr.cross_polytope(4), 4, rng), _sphere(3),
             ("theorem_2", 3)),
            ("sd_c5_join_c5", subdivide_edges(c5_join_c5(), 2, rng), _sphere(3),
             ("theorem_2", 3)),
            ("sd_icosahedron", subdivide_edges(fr.icosahedron(), 6, rng), _sphere(2),
             ("theorem_2", 2)),
            ("torus_10x10", fr.torus_grid(10, 10), TORUS, ("theorem_2", 2)),
            ("sd_torus_6x6", subdivide_edges(fr.torus_grid(6, 6), 4, rng), TORUS,
             ("theorem_2", 2)),
            ("complete9", fr.complete(9), CONTRACTIBLE, ("none", None)),
            ("gnp_16_0.5", gnp_first_subset_exit(16, 0.5, rng), None, None),
            ("gnp_12_0.7", gnp_first_subset_exit(12, 0.7, rng), None, None),
        ]
    return [
        Item(name, "analyze", fr.emit_graph6(g), homology, verdict)
        if g.vertex_count <= 62
        else Item(name, "analyze", edge_list(g), homology, verdict, fmt="edges")
        for name, g, homology, verdict in named
    ]


def deck_roundtrip(seed: int, small: bool = False) -> list[Item]:
    """Flag manifolds through ``deck``, then ``reconstruct`` on one card per card class."""
    rng = random.Random(seed)
    if small:
        named = [
            ("cycle6", fr.cycle(6), 1),
            ("octahedron", fr.cross_polytope(3), 2),
            ("sd_octahedron", subdivide_edges(fr.cross_polytope(3), 2, rng), 2),
        ]
    else:
        # An odd count, with torus_6x7 well apart from its neighbours in
        # size, keeps the median item on one input.
        named = [
            ("torus_6x6", fr.torus_grid(6, 6), 2),
            ("torus_6x7", fr.torus_grid(6, 7), 2),
            ("torus_7x7", fr.torus_grid(7, 7), 2),
            ("cross_polytope5", fr.cross_polytope(5), 4),
            ("icosahedron", fr.icosahedron(), 2),
            ("c5_join_c5", c5_join_c5(), 3),
            ("sd_torus_6x6", subdivide_edges(fr.torus_grid(6, 6), 4, rng), 2),
            ("sd_cross_polytope4", subdivide_edges(fr.cross_polytope(4), 4, rng), 3),
            ("sd_c5_join_c5", subdivide_edges(c5_join_c5(), 2, rng), 3),
        ]
    return [Item(name, "deck", fr.emit_graph6(g), dim=dim) for name, g, dim in named]


def census_n7(seed: int, small: bool = False) -> list[Item]:
    """``scan`` over every class of one order, then ``analyze`` on each class, seed-shuffled."""
    order = 4 if small else 7
    classes = fr.enumerate_graphs(order)
    items = []
    for i, g in enumerate(classes):
        cert = fr.certify_reconstructible(g)
        verdict = (cert.verdict, cert.dimension)
        items.append(Item(f"class{i:04d}", "analyze", fr.emit_graph6(g), verdict=verdict))
    random.Random(seed).shuffle(items)
    scan = Item("scan", "scan", "", dim=order, classes=len(classes))
    return [scan] + items


BUILDERS = {"analyze_corpus": analyze_corpus, "deck_roundtrip": deck_roundtrip,
            "census_n7": census_n7}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _certificate_exit(verdict: str) -> int:
    return 1 if verdict == fr.VERDICT_NONE else 0


def _euler_holds(ranks: dict[int, int], chi: int) -> bool:
    return sum(-r if d % 2 else r for d, r in ranks.items()) == chi - 1


def _check_report(item: Item, rc: int, report: dict) -> list[str]:
    problems = []
    cert = report["certificate"]
    if rc != _certificate_exit(cert["verdict"]):
        problems.append(f"exit code {rc} does not match certificate {cert['verdict']}")
    g = item.graph()
    described = {"format": "graph6" if item.fmt == "g6" else "edges",
                 "vertex_count": g.vertex_count, "edge_count": g.edge_count,
                 "graph6": item.text if item.fmt == "g6" else None}
    if report["input"] != described:
        problems.append(f"report describes another graph: {report['input']}")
    ranks = {h["degree"]: h["rank"] for h in report["homology"]}
    if not _euler_holds(ranks, report["flag_complex"]["euler_characteristic"]):
        problems.append("alternating homology rank sum differs from chi - 1")
    if item.homology is not None:
        got = {h["degree"]: (h["rank"], tuple(h["torsion"]))
               for h in report["homology"] if h["rank"] or h["torsion"]}
        if got != item.homology:
            problems.append(f"homology {got} differs from the known {item.homology}")
    if item.verdict is not None and (cert["verdict"], cert["dimension"]) != item.verdict:
        problems.append(f"certificate {cert['verdict']}/{cert['dimension']} "
                        f"differs from {item.verdict}")
    lemma = (report["coxeter"] or {}).get("lemma_key")
    if lemma and lemma["applicable"] and not lemma["consistent"]:
        problems.append("lemma-key statements disagree")
    return problems


def _check_deck(item: Item, steps: list[dict]) -> list[str]:
    g = item.graph()
    deck_step, recon = steps[0], steps[1:]
    if deck_step["rc"] != 0:
        return [f"deck exited {deck_step['rc']}: {deck_step['err'].strip()}"]
    lines = deck_step["out"].split()
    cards, mults = lines[0::2], [int(m) for m in lines[1::2]]
    problems = []
    if sum(mults) != g.vertex_count:
        problems.append(f"deck multiplicities sum to {sum(mults)}, not {g.vertex_count}")
    if len(recon) != len(cards):
        problems.append(f"{len(recon)} reconstructs for {len(cards)} card classes")
    for step in recon:
        if step["rc"] != 0:
            problems.append(f"reconstruct exited {step['rc']}: {step['err'].strip()}")
        elif not fr.are_isomorphic(fr.parse_graph6(step["out"]), g):
            problems.append("recovered graph is not isomorphic to its source")
    return problems


def _check_scan(item: Item, step: dict) -> list[str]:
    expected = f"classes scanned: {item.classes}\nhypomorphic groups: 0\n"
    if step["rc"] != 0 or step["out"] != expected:
        return [f"scan exited {step['rc']} with {step['out']!r}"]
    return []


def check_item(item: Item, result: dict, workdir: Path) -> list[str]:
    """Problems with one item's outputs in one pass; empty when every check holds."""
    if result.get("error"):
        return [result["error"]]
    steps = result["steps"]
    try:
        if item.kind == "deck":
            return _check_deck(item, steps)
        if item.kind == "scan":
            return _check_scan(item, steps[0])
        step = steps[0]
        if step["rc"] not in (0, 1):
            return [f"analyze exited {step['rc']}: {step['err'].strip()}"]
        report = json.loads((workdir / f"{item.id}.json").read_text())
        return _check_report(item, step["rc"], report)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output could not be read: {exc!r}"]

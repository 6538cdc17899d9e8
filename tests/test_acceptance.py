"""Acceptance gate: seven criteria, one [PASS]/[FAIL] line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines print.  Every
expectation is exact integer arithmetic; the only tolerances anywhere are the
two wall-clock budgets stated inline.
"""

from __future__ import annotations

import random
import time
from functools import cache
from pathlib import Path

import flagrecon as fr
from flagrecon.reports import analysis_report, report_json
from oracles import (
    matrix_from_rows,
    matrix_multiply,
    projective_plane,
    random_graph,
    reduced_cohomology_via_cochains,
    small_corpus,
    smith_transforms,
)

GOLDEN = Path(__file__).parent / "golden"


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label} ({detail})"


@cache
def _classes(n: int) -> tuple[fr.Graph, ...]:
    return tuple(fr.enumerate_graphs(n))


@cache
def _hypomorphic_groups(n: int) -> tuple[tuple[fr.Graph, ...], ...]:
    return tuple(tuple(grp) for grp in fr.brute_force_oracle(list(_classes(n))))


def _system(g: fr.Graph) -> fr.NerveSystem:
    return fr.NerveSystem.from_graph(g)


def test_criterion_1_certificates_are_sound_exhaustively_to_order_7():
    start = time.monotonic()
    total = certified = 0
    violations: list[str] = []
    for n in range(1, 8):
        reps = _classes(n)
        total += len(reps)
        ambiguous = {
            fr.canonical_form(g) for grp in _hypomorphic_groups(n) for g in grp
        }
        if n < 3:
            continue  # certify_reconstructible refuses these by contract
        for g in reps:
            cert = fr.certify_reconstructible(g)
            if cert.verdict == fr.VERDICT_NONE:
                continue
            certified += 1
            if fr.canonical_form(g) in ambiguous:
                violations.append(fr.emit_graph6(g))
    elapsed = time.monotonic() - start
    ok = not violations and len(_classes(7)) == 1044 and elapsed < 300.0
    _verdict(
        1,
        "certified graphs are never deck-ambiguous, all classes to order 7",
        ok,
        f"{total} classes, {certified} certified, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_2_every_card_of_the_manifold_corpus_reconstructs():
    corpus = (
        [(f"C{n}", fr.cycle(n), 1) for n in range(4, 10)]
        + [(f"cross{k}", fr.cross_polytope(k), k - 1) for k in (2, 3, 4)]
        + [
            ("torus44", fr.torus_grid(4, 4), 2),
            ("torus55", fr.torus_grid(5, 5), 2),
            ("icosahedron", fr.icosahedron(), 2),
        ]
    )
    start = time.monotonic()
    cards = 0
    failures: list[str] = []
    for name, g, n in corpus:
        for v in g.labels:
            cards += 1
            recovered = fr.reconstruct_from_card(fr.vertex_deleted(g, v), n)
            if not fr.are_isomorphic(recovered, g):
                failures.append(f"{name}/{v}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    _verdict(
        2,
        "card recovery round-trips the whole manifold corpus",
        ok,
        f"{cards} cards, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_3_the_manifold_and_sphere_table_is_exact():
    checks: list[bool] = []

    def expect(condition: bool) -> None:
        checks.append(bool(condition))

    for n in range(4, 10):
        s = fr.is_generalized_homology_sphere(fr.clique_complex(fr.cycle(n)))
        expect(s.is_sphere and s.dimension == 1)
    for k in (2, 3, 4):
        s = fr.is_generalized_homology_sphere(fr.clique_complex(fr.cross_polytope(k)))
        expect(s.is_sphere and s.dimension == k - 1)
    for dims in ((4, 4), (5, 5)):
        L = fr.clique_complex(fr.torus_grid(*dims))
        expect(fr.is_homology_manifold(L).is_manifold)
        expect(not fr.is_generalized_homology_sphere(L).is_sphere)

    def expect_failing_witness(g: fr.Graph, n: int) -> fr.ManifoldVerdict:
        L = fr.clique_complex(g)
        verdict = fr.is_homology_manifold(L)
        expect(not verdict.is_manifold and verdict.witness is not None)
        expect(verdict.dimension == n)
        w = verdict.witness
        # the witness must genuinely fail the interior pattern, which for an
        # n-manifold is local homology Z concentrated in degree n
        local = fr.local_homology(L, w.simplex).nontrivial()
        expect(local != {n: fr.INTEGERS})
        expect(local == w.local_homology.nontrivial())
        return verdict

    v = expect_failing_witness(fr.complete(4), 3)
    expect(v.witness.simplex in {("0",), ("1",), ("2",), ("3",)})
    v = expect_failing_witness(fr.path(4), 1)
    expect(v.witness.simplex in {("0",), ("3",)})
    hub = fr.Graph.from_edges(["h"], [])
    v = expect_failing_witness(fr.join(fr.cycle(4), hub), 2)
    expect(v.witness.simplex != ("h",))

    ok = all(checks)
    bad = len(checks) - sum(checks)
    _verdict(
        3,
        "manifold/sphere classification table, zero tolerance",
        ok,
        f"{len(checks)} exact checks, {bad} mismatches",
    )


def test_criterion_4_lemma_key_statements_never_disagree():
    named = [fr.cycle(n) for n in range(5, 10)] + [
        fr.torus_grid(4, 4),
        fr.torus_grid(5, 5),
        fr.icosahedron(),
    ]
    rng = random.Random(20260816)
    randoms: list[fr.Graph] = []
    attempts = 0
    while len(randoms) < 100:
        attempts += 1
        assert attempts < 10_000, "random corpus generation stalled"
        g = random_graph(rng, rng.randint(4, 9), rng.choice((0.3, 0.5, 0.7)))
        ns = _system(g)
        if fr.is_finite_group(ns) or not fr.is_irreducible(ns):
            continue
        randoms.append(g)
    disagreements: list[str] = []
    for g in named + randoms:
        report = fr.lemma_key_crosscheck(_system(g))
        s1, s2, s3 = report.statements
        if not (s1 == s2 == s3 and report.consistent):
            disagreements.append(fr.emit_graph6(g))
    ok = not disagreements
    _verdict(
        4,
        "virtual-duality, sphere-homology and cohomology-vanishing agree",
        ok,
        f"{len(named)} named + {len(randoms)} random systems, "
        f"{len(disagreements)} disagreements",
    )


def test_criterion_5_the_homology_engine_validates():
    complexes = [fr.clique_complex(g) for _, g in small_corpus()]
    complexes.append(projective_plane())
    checks: list[bool] = []

    for L in complexes:
        for k in range(L.dimension + 1):
            lower = fr.boundary_matrix(L, k, reduced=(k == 0))
            upper = fr.boundary_matrix(L, k + 1)
            product = matrix_multiply(lower, upper)
            checks.append(all(e == 0 for row in product.entries for e in row))
        ranks = {
            deg: grp.rank for deg, grp in fr.reduced_homology(L).nontrivial().items()
        }
        alternating = sum((-1) ** deg * r for deg, r in ranks.items())
        checks.append(fr.euler_characteristic(L) == 1 + alternating)
        checks.append(fr.reduced_cohomology(L) == reduced_cohomology_via_cochains(L))

    rp2 = fr.reduced_cohomology(projective_plane()).nontrivial()
    checks.append(rp2 == {2: fr.AbelianGroup(0, (2,))})

    rng = random.Random(5317)
    snf_count = 0
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = matrix_from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        snf = fr.smith_normal_form(m)
        u, v = smith_transforms(m)
        product = matrix_multiply(matrix_multiply(u, m), v)
        diag = [
            [
                snf.invariant_factors[i] if i == j and i < len(snf.invariant_factors) else 0
                for j in range(cols)
            ]
            for i in range(rows)
        ]
        good = (
            product.entries == tuple(tuple(r) for r in diag)
            and _is_unimodular(u)
            and _is_unimodular(v)
        )
        checks.append(good)
        snf_count += 1

    ok = all(checks)
    bad = len(checks) - sum(checks)
    _verdict(
        5,
        "boundary, Euler, cohomology-route and normal-form identities",
        ok,
        f"{len(complexes)} complexes, {snf_count} random matrices, {bad} failures",
    )


def _is_unimodular(m: fr.IntegerMatrix) -> bool:
    from oracles import determinant

    return m.rows == m.cols and determinant([list(r) for r in m.entries]) in (1, -1)


def test_criterion_6_the_classical_pair_is_the_only_ambiguity_to_order_7():
    groups = _hypomorphic_groups(2)
    pair_found = len(groups) == 1 and {
        fr.emit_graph6(g) for g in groups[0]
    } == {"A?", "A_"}
    clean_orders = [n for n in range(3, 8) if not _hypomorphic_groups(n)]
    ok = pair_found and clean_orders == [3, 4, 5, 6, 7]
    _verdict(
        6,
        "deck oracle finds {K_2, 2K_1} at order 2 and nothing afterwards",
        ok,
        f"pair found: {pair_found}, clean orders: {clean_orders}",
    )


def test_criterion_7_formats_and_reports_are_byte_stable():
    trips = 0
    failures = 0
    candidates = [g for n in range(1, 6) for g in _classes(n)]
    candidates += [g for _, g in small_corpus()]
    for g in candidates:
        h = fr.parse_graph6(fr.emit_graph6(g))
        pairs = {tuple(sorted((g.index(a), g.index(b)))) for a, b in g.edges()}
        back = {tuple(sorted((h.index(a), h.index(b)))) for a, b in h.edges()}
        trips += 1
        if h.vertex_count != g.vertex_count or pairs != back:
            failures += 1
    stable = 0
    for fname, g in [
        ("c5.json", fr.cycle(5)),
        ("k222.json", fr.cross_polytope(3)),
        ("torus44.json", fr.torus_grid(4, 4)),
    ]:
        first = report_json(analysis_report(g, source_format="graph6"))
        second = report_json(analysis_report(g, source_format="graph6"))
        if first == second == (GOLDEN / fname).read_text(encoding="utf-8"):
            stable += 1
    ok = failures == 0 and stable == 3
    _verdict(
        7,
        "graph6 round-trips and reports repeat byte for byte",
        ok,
        f"{trips} round trips, {failures} failures, {stable}/3 golden reports stable",
    )

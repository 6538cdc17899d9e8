"""Spans around the public functions of each flagrecon module, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``flagrecon`` module namespace that holds it, because the modules import
each other with ``from .x import f`` and each such name is a separate
binding.  ``reduced_homology`` and ``canonical_form`` are ``lru_cache``
objects; they are wrapped from outside, so a cache hit still counts as a
call.  Spans stay in memory until ``layer_metrics`` and ``dump`` run after
the pass.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from pathlib import Path

TRACED = {
    "cli": ("main",),
    "formats": ("parse_graph6", "emit_graph6"),
    "graphs": ("canonical_form", "vertex_deleted"),
    "complexes": ("clique_complex", "build_complex", "link", "full_subcomplex"),
    "homology": ("boundary_matrix", "smith_normal_form", "reduced_homology",
                 "reduced_cohomology"),
    "manifolds": ("is_homology_manifold", "is_generalized_homology_sphere", "boundary_of"),
    "coxeter": ("is_virtual_pd", "condition3_vanishing", "lemma_key_crosscheck"),
    "reconstruction": ("deck", "certify_reconstructible", "reconstruct_from_card",
                       "enumerate_graphs", "brute_force_oracle"),
    "reports": ("analysis_report", "report_json"),
}

# Counts taken at the span boundary, from a call's first argument and its result.
COUNTERS = {
    "homology.smith_normal_form": lambda args, r: {
        "entries": args[0].rows * args[0].cols,
        "rank": r.rank,
        "nonunit_factors": sum(1 for d in r.invariant_factors if abs(d) != 1),
    },
    "homology.boundary_matrix": lambda args, r: {
        "entries": r.rows * r.cols,
        "nonzeros": sum(len(row) - row.count(0) for row in r.entries),
    },
    "coxeter.condition3_vanishing": lambda args, r: {"subsets": r.subsets_checked},
    "graphs.canonical_form": lambda args, r: {"vertices": args[0].vertex_count},
    "complexes.clique_complex": lambda args, r: {"faces": sum(map(len, r.simplices))},
    "reconstruction.deck": lambda args, r: {"cards": r.size},
    "reports.report_json": lambda args, r: {"bytes": len(r.encode())},
}

# The per-layer metrics the traced run reports, with their units.
PER_LAYER = [
    ("homology.smith_normal_form.calls", "count"),
    ("homology.smith_normal_form.self_s", "s"),
    ("homology.smith_normal_form.entries", "count"),
    ("homology.smith_normal_form.rank", "count"),
    ("homology.smith_normal_form.nonunit_factors", "count"),
    ("homology.boundary_matrix.calls", "count"),
    ("homology.boundary_matrix.self_s", "s"),
    ("homology.boundary_matrix.entries", "count"),
    ("homology.boundary_matrix.nonzeros", "count"),
    ("coxeter.condition3_vanishing.calls", "count"),
    ("coxeter.condition3_vanishing.total_s", "s"),
    ("coxeter.condition3_vanishing.subsets", "count"),
    ("coxeter.is_virtual_pd.total_s", "s"),
    ("coxeter.lemma_key_crosscheck.total_s", "s"),
    ("homology.reduced_homology.calls", "count"),
    ("homology.reduced_homology.computed", "count"),
    ("homology.reduced_homology.reuse_ratio", "ratio"),
    ("homology.reduced_homology.total_s", "s"),
    ("homology.reduced_cohomology.calls", "count"),
    ("graphs.canonical_form.calls", "count"),
    ("graphs.canonical_form.self_s", "s"),
    ("graphs.canonical_form.vertices", "count"),
    ("graphs.vertex_deleted.self_s", "s"),
    ("manifolds.boundary_of.calls", "count"),
    ("manifolds.boundary_of.total_s", "s"),
    ("manifolds.is_homology_manifold.calls", "count"),
    ("manifolds.is_homology_manifold.total_s", "s"),
    ("manifolds.is_homology_manifold.links", "count"),
    ("manifolds.is_generalized_homology_sphere.calls", "count"),
    ("manifolds.is_generalized_homology_sphere.total_s", "s"),
    ("complexes.clique_complex.calls", "count"),
    ("complexes.clique_complex.self_s", "s"),
    ("complexes.clique_complex.faces", "count"),
    ("complexes.build_complex.calls", "count"),
    ("complexes.build_complex.self_s", "s"),
    ("complexes.link.calls", "count"),
    ("complexes.link.self_s", "s"),
    ("complexes.full_subcomplex.calls", "count"),
    ("complexes.full_subcomplex.self_s", "s"),
    ("reconstruction.deck.calls", "count"),
    ("reconstruction.deck.total_s", "s"),
    ("reconstruction.deck.cards", "count"),
    ("reconstruction.certify_reconstructible.calls", "count"),
    ("reconstruction.certify_reconstructible.total_s", "s"),
    ("reconstruction.reconstruct_from_card.calls", "count"),
    ("reconstruction.reconstruct_from_card.total_s", "s"),
    ("reconstruction.enumerate_graphs.calls", "count"),
    ("reconstruction.enumerate_graphs.total_s", "s"),
    ("reconstruction.brute_force_oracle.calls", "count"),
    ("reconstruction.brute_force_oracle.total_s", "s"),
    ("reports.analysis_report.calls", "count"),
    ("reports.analysis_report.self_s", "s"),
    ("reports.analysis_report.total_s", "s"),
    ("reports.report_json.self_s", "s"),
    ("reports.report_json.bytes", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("formats.parse_graph6.self_s", "s"),
    ("formats.emit_graph6.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class Tracer:
    """Records one span per traced call: name, start, end, parent span and item id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # [name index, start ns, end ns, parent span or -1, item id]
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.item = ""
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0, 0, stack[-1], self.item]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                counts[index] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every ``flagrecon`` module attribute that names a traced function."""
        wrappers = {}
        for module, functions in TRACED.items():
            mod = importlib.import_module(f"flagrecon.{module}")
            for fn_name in functions:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{fn_name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "flagrecon" and not mod_name.startswith("flagrecon."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls, total and self seconds, and the boundary counts."""
        spans, names = self.spans, self.names
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names
        }
        manifold = names.index("manifolds.is_homology_manifold")
        link = names.index("complexes.link")
        snf = names.index("homology.smith_normal_form")
        homology = names.index("homology.reduced_homology")
        in_manifold = [False] * len(spans)
        computed = set()
        links = 0
        for index, (name_id, start, end, parent, _) in enumerate(spans):
            s = stats[names[name_id]]
            s["calls"] += 1
            s["total_s"] += (end - start) / 1e9
            s["self_s"] += (end - start - child_ns[index]) / 1e9
            for key, value in self.counts.get(index, {}).items():
                s[key] = s.get(key, 0) + value
            if parent >= 0:
                in_manifold[index] = spans[parent][0] == manifold or in_manifold[parent]
                if name_id == snf and spans[parent][0] == homology:
                    computed.add(parent)
            if name_id == link and in_manifold[index]:
                links += 1
        rh = stats["homology.reduced_homology"]
        rh["computed"] = len(computed)
        rh["reuse_ratio"] = 1 - len(computed) / rh["calls"] if rh["calls"] else 0.0
        stats["manifolds.is_homology_manifold"]["links"] = links
        out = {}
        for metric, _ in PER_LAYER:
            function, _, key = metric.rpartition(".")
            if function in stats:
                out[metric] = stats[function].get(key, 0)
        return out

    def dump(self, path: Path) -> None:
        """Write every span, with its counts, as one gzipped JSON document."""
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "item"],
            "names": self.names,
            "spans": self.spans,
            "counts": {str(k): v for k, v in self.counts.items()},
        }
        with gzip.open(path, "wt", encoding="ascii") as f:
            json.dump(doc, f, separators=(",", ":"))

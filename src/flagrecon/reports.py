"""Assembly of the JSON analysis report (schema version 1).

The report is deterministic by construction: keys are sorted at dump time,
vertex collections are sorted before emission, and timing values are only
filled in when explicitly requested, so repeated runs on the same input are
byte-identical.
"""

from __future__ import annotations

import importlib.resources
import json
import time
from typing import Any, Iterable

from .complexes import euler_characteristic, f_vector
from .coxeter import (
    Condition3Result,
    LemmaKeyReport,
    NerveSystem,
    PDVerdict,
    is_finite_group,
    lemma_key_crosscheck,
)
from .formats import emit_graph6
from .graphs import Graph
from .homology import AbelianGroup, GradedGroups
from .manifolds import ManifoldVerdict, SphereVerdict
from .reconstruction import Certificate, _certify

__all__ = ["SCHEMA_VERSION", "analysis_report", "report_json", "report_schema"]

SCHEMA_VERSION = 1


def report_schema() -> dict[str, Any]:
    """Load the JSON Schema that analysis_report output conforms to."""
    ref = importlib.resources.files("flagrecon").joinpath(
        f"data/report_schema_v{SCHEMA_VERSION}.json"
    )
    return json.loads(ref.read_text(encoding="utf-8"))

_THEOREM_PATHS = {
    "theorem_2": "flag complex is a homology manifold",
    "theorem_1": "group is a virtual Poincare duality group",
    "none": "no implemented criterion applies",
}


def _group_payload(g: AbelianGroup) -> dict[str, Any]:
    return {"rank": g.rank, "torsion": list(g.torsion)}


def _graded_payload(gg: GradedGroups, degrees: Iterable[int]) -> list[dict[str, Any]]:
    """One entry for each of ``degrees``, in their order, trivial groups included."""
    return [{"degree": d, **_group_payload(gg.group(d))} for d in degrees]


def _manifold_payload(v: ManifoldVerdict | None) -> dict[str, Any] | None:
    if v is None:
        return None
    payload: dict[str, Any] = {"is_manifold": v.is_manifold, "dimension": v.dimension}
    if v.witnesses:
        w = v.witnesses[0]
        payload["witness"] = {
            "simplex": list(w.simplex),
            "local_homology": _graded_payload(w.local_homology, w.local_homology.by_degree),
            "detail": w.detail,
        }
    else:
        payload["witness"] = None
    payload["verified_simplices"] = (
        {str(k): c for k, c in sorted(v.verified.items())} if v.verified else None
    )
    return payload


def _sphere_payload(v: SphereVerdict | None) -> dict[str, Any] | None:
    if v is None:
        return None
    return {
        "is_sphere": v.is_sphere,
        "dimension": v.dimension,
        "detail": v.detail or None,
    }


def _pd_payload(v: PDVerdict) -> dict[str, Any]:
    return {
        "is_vpd": v.is_vpd,
        "dimension": v.dimension,
        "core": sorted(v.core),
        "spherical_factor": sorted(v.spherical_factor),
        "core_sphere": _sphere_payload(v.core_sphere),
        "degenerate": v.degenerate,
    }


def _condition3_payload(r: Condition3Result) -> dict[str, Any]:
    payload: dict[str, Any] = {"holds": r.holds, "subsets_checked": r.subsets_checked}
    if r.witness is not None:
        payload["witness"] = {
            "subset": list(r.witness.subset),
            "degree": r.witness.degree,
            "group": _group_payload(r.witness.group),
        }
    else:
        payload["witness"] = None
    return payload


def _lemma_key_payload(r: LemmaKeyReport | None, reason: str | None) -> dict[str, Any]:
    if r is None:
        return {"applicable": False, "reason": reason}
    return {
        "applicable": True,
        "statements": {
            "virtual_pd": r.virtual_pd.is_vpd,
            "homology_sphere": r.sphere.is_sphere,
            "cohomology_vanishing": r.vanishing.holds,
        },
        "consistent": r.consistent,
    }


def _certificate_payload(c: Certificate) -> dict[str, Any]:
    return {
        "verdict": c.verdict,
        "dimension": c.dimension,
        "theorem_path": _THEOREM_PATHS[c.verdict],
        "caveat": c.caveat,
    }


def analysis_report(g: Graph, *, source_format: str, with_timings: bool = False) -> dict[str, Any]:
    """Run the full pipeline on one graph and collect a schema-v1 report.

    Every section reads one :class:`NerveSystem`, so each fact is computed
    once.  The sphere verdict comes first: a manifold's holds the global
    homology, which is then timed under ``manifold``.  Raises on malformed
    input (e.g. a flag complex over the face budget ``MAX_FACES``); every
    analysis outcome short of that, including "no certificate", is data in
    the report rather than an error.
    """
    timings: dict[str, float] = {}

    def staged(name: str, fn):
        start = time.perf_counter()
        result = fn()
        timings[name] = round((time.perf_counter() - start) * 1000.0, 3)
        return result

    ns = staged("clique_complex", lambda: NerveSystem(g))
    nerve = ns.nerve
    sphere = staged("manifold", lambda: ns.sphere if nerve.dimension >= 0 else None)
    homology = staged("homology", lambda: ns.homology)

    def coxeter_section():
        if g.vertex_count == 0:
            return None
        finite = is_finite_group(ns)
        irreducible = ns.irreducible
        pd = ns.virtual_pd
        if irreducible and not finite:
            lemma, reason = lemma_key_crosscheck(ns), None
        elif not irreducible:
            lemma, reason = None, "system is reducible"
        else:
            lemma, reason = None, "group is finite"
        return {
            "is_finite": finite,
            "is_irreducible": irreducible,
            "join_decomposition": {
                "core": sorted(pd.core),
                "spherical_factor": sorted(pd.spherical_factor),
            },
            "virtual_pd": _pd_payload(pd),
            "condition3": _condition3_payload(ns.condition3),
            "lemma_key": _lemma_key_payload(lemma, reason),
        }

    coxeter = staged("coxeter", coxeter_section)

    certificate = staged("certificate", lambda: _certificate_payload(_certify(ns)))

    return {
        "schema_version": SCHEMA_VERSION,
        "input": {
            "format": source_format,
            "vertex_count": g.vertex_count,
            "edge_count": g.edge_count,
            "graph6": emit_graph6(g) if g.vertex_count <= 62 else None,
        },
        "flag_complex": {
            "dimension": nerve.dimension,
            "f_vector": list(f_vector(nerve)),
            "euler_characteristic": euler_characteristic(nerve),
        },
        "homology": _graded_payload(homology, range(-1, nerve.dimension + 1)),
        "manifold": _manifold_payload(sphere.manifold if sphere else None),
        "sphere": _sphere_payload(sphere),
        "coxeter": coxeter,
        "certificate": certificate,
        "timings": timings if with_timings else None,
    }


def report_json(report: dict[str, Any]) -> str:
    """Canonical serialisation: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"

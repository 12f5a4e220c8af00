"""Independent references for every output the benchmark checks.

Each check returns ``None`` when the output is right and a one-line
reason when it is not. Checks run outside every timed window.

* Call graphs against the standard (cubic) CFA: equal on exact-grammar
  programs (no datatypes) and on degraded results, a superset under the
  default ``≈2`` congruence (Propositions 1-2).
* The ``degraded`` status exactly on the programs generated as
  unbounded (budget fallback) or untypeable (inference fallback).
* Lint findings against the ``impl="rules"`` twin on a cold analysis.
* Daemon ``analyze`` byte-identical to a cold analysis of the program
  the ``source`` verb renders.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from inputs import DEGRADED_CLASSES

EXPECTED_FALLBACK = {"unbounded": "budget", "untypeable": "inference"}


def degraded_status(cls: str, engine: Dict[str, object]) -> Optional[str]:
    degraded = engine.get("name") == "standard"
    if degraded != (cls in DEGRADED_CLASSES):
        return f"engine {engine.get('name')} on a {cls} program"
    if degraded and engine.get("fallback_reason") != EXPECTED_FALLBACK[cls]:
        return f"fallback {engine.get('fallback_reason')} on a {cls} program"
    return None


def call_graph(source: str, envelope: Dict[str, object], cls: str) -> Optional[str]:
    import repro
    from repro.cfa.standard import analyze_standard

    engine = envelope.get("engine") or {}
    problem = degraded_status(cls, engine)
    if problem:
        return problem
    program = repro.parse(source)
    standard = analyze_standard(program)
    exact = engine.get("name") == "standard" or not program.datatypes
    sites = {str(site.nid): site for site in program.applications}
    graph = envelope.get("call_graph") or {}
    if set(graph) != set(sites):
        return f"call graph covers {len(graph)} of {len(sites)} sites"
    for nid, entry in graph.items():
        got = set(entry["callees"])
        want = set(standard.may_call(sites[nid]))
        if exact and got != want:
            return f"site {nid}: callees {sorted(got)} != standard {sorted(want)}"
        if not exact and not got >= want:
            return f"site {nid}: callees {sorted(got)} miss {sorted(want - got)}"
    return None


def twin_findings(source: str) -> List[Dict[str, object]]:
    """Findings of the rule-program twin on a cold hybrid analysis."""
    import repro
    from repro.core.hybrid import analyze_hybrid
    from repro.lint import run_lints

    program = repro.parse(source)
    result = run_lints(program, analyze_hybrid(program), impl="rules")
    return [finding.to_dict() for finding in result.findings]


def lint_findings(source: str, findings: List[Dict[str, object]]) -> Optional[str]:
    want = twin_findings(source)
    if findings != want:
        return f"{len(findings)} findings != rules twin's {len(want)}"
    return None


def warm_equals_cold(source: str, envelope: Dict[str, object]) -> Optional[str]:
    import repro
    from repro.export import canonical_json, result_to_dict

    cold = result_to_dict(repro.analyze(repro.parse(source)))
    if canonical_json(cold) != canonical_json(envelope):
        return "daemon analyze differs from a cold analysis of its source"
    return None

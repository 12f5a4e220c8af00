"""Offline analytics over ``repro.events/1`` streams.

``repro analyze|lint --trace PATH`` binds an engine-event
:class:`~repro.obs.events.EventLog` whose sink is PATH; the daemon's
``--events`` log is the same dialect with per-request aggregates
only. This module is the reader side — everything here works on a
finished event file, long after the recording process exited:

* :func:`read_events` — parse a JSONL stream, validating every record
  with :func:`~repro.obs.events.validate_event`;
* :func:`completeness` — is the stream the *whole* story? The sink
  receives every event (the ring buffer only bounds the in-memory
  view), so a complete trace has contiguous ``seq`` values from 0;
* :func:`rule_hotspots` / :func:`node_hotspots` — where the engine
  spent its firings: per-rule-family counts, and the graph nodes most
  often touched by edges, demand transitions and sweeps;
* :func:`demand_waterfall` — the demand cascade in arrival order:
  each node's demand transition with the sweeps and closure edges it
  triggered before the next demand;
* :func:`provenance_check` — cross-check the trace against the
  CLOSE-* accounting contract: closure rule counters count only edges
  actually added, so ``#edge events(phase="close")`` must equal
  ``rules["CLOSE-COV"] + rules["CLOSE-CONTRA"]`` and ``graph.
  close_edges`` in the run's metrics document.

The CLI surfaces these as ``repro obs top`` and
``repro obs waterfall`` (see ``docs/OBSERVABILITY.md``); each report
prints the sections the stream has records for — engine hotspots and
the demand cascade for engine events, per-request tables for
request/response events.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.events import ENGINE_EVENT_KINDS, read_event_log

#: The one ``repro.events/1`` reader, under the name the trace
#: analytics export.
read_events = read_event_log


def _has_kind(events: List[Dict[str, object]], kinds) -> bool:
    return any(event.get("kind") in kinds for event in events)


def completeness(events: List[Dict[str, object]]) -> Dict[str, object]:
    """Is this stream a complete trace?

    A JSONL sink receives every emitted event regardless of the ring
    buffer, so a complete trace has ``seq`` values 0..N-1 with no
    gaps. A ring-buffer dump (``log.events()``) after the ring dropped
    events starts later — ``first_seq`` tells you how much is missing.
    """
    seqs = sorted(event["seq"] for event in events)
    gaps = 0
    for i in range(1, len(seqs)):
        if seqs[i] != seqs[i - 1] + 1:
            gaps += 1
    return {
        "events": len(events),
        "first_seq": seqs[0] if seqs else None,
        "last_seq": seqs[-1] if seqs else None,
        "gaps": gaps,
        "complete": bool(seqs) and seqs[0] == 0 and gaps == 0,
    }


# -- hotspots ------------------------------------------------------------------


def rule_hotspots(events: List[Dict[str, object]]) -> Dict[str, int]:
    """Firing counts per rule family.

    Build-rule firings come from ``rule`` events; closure conclusions
    are reconstructed from ``edge`` events with ``phase="close"``
    (the engine does not emit per-closure-firing rule events — the
    edge event *is* the conclusion).
    """
    counts: Dict[str, int] = {}
    for event in events:
        kind = event.get("kind")
        if kind == "rule":
            name = str(event.get("rule"))
            counts[name] = counts.get(name, 0) + 1
        elif kind == "edge" and event.get("phase") == "close":
            counts["CLOSE-*"] = counts.get("CLOSE-*", 0) + 1
    return counts


def node_hotspots(
    events: List[Dict[str, object]], limit: Optional[int] = None
) -> List[Dict[str, object]]:
    """The nodes the closure touched most, with a per-activity split.

    A node is "touched" when it is an edge endpoint, becomes demanded,
    or is swept. Rows are sorted by total touches (descending), ties
    by name for stable output.
    """
    touches: Dict[str, Dict[str, int]] = {}

    def bump(name, column):
        if not isinstance(name, str):
            return
        row = touches.get(name)
        if row is None:
            row = touches[name] = {
                "edges": 0, "demands": 0, "sweeps": 0
            }
        row[column] += 1

    for event in events:
        kind = event.get("kind")
        if kind == "edge":
            bump(event.get("src"), "edges")
            bump(event.get("dst"), "edges")
        elif kind == "demand":
            bump(event.get("node"), "demands")
        elif kind == "sweep":
            bump(event.get("node"), "sweeps")
    rows = [
        {
            "node": name,
            "total": row["edges"] + row["demands"] + row["sweeps"],
            **row,
        }
        for name, row in touches.items()
    ]
    rows.sort(key=lambda r: (-r["total"], r["node"]))
    if limit is not None:
        rows = rows[:limit]
    return rows


def demand_waterfall(
    events: List[Dict[str, object]], limit: Optional[int] = None
) -> List[Dict[str, object]]:
    """The demand cascade: what each demand transition triggered.

    Events between one ``demand`` event and the next are attributed to
    the earlier demand (trace order is engine order, so the sweeps and
    closure conclusions that follow a demand are its consequences —
    until the next node becomes demanded).
    """
    ordered = sorted(events, key=lambda e: e["seq"])
    rows: List[Dict[str, object]] = []
    current: Optional[Dict[str, object]] = None
    for event in ordered:
        kind = event.get("kind")
        if kind == "demand":
            current = {
                "seq": event["seq"],
                "node": event.get("node"),
                "sweeps": 0,
                "close_edges": 0,
            }
            rows.append(current)
        elif current is not None:
            if kind == "sweep":
                current["sweeps"] += 1
            elif kind == "edge" and event.get("phase") == "close":
                current["close_edges"] += 1
    if limit is not None:
        rows = rows[:limit]
    return rows


# -- provenance ----------------------------------------------------------------


def provenance_check(
    events: List[Dict[str, object]], metrics=None
) -> Dict[str, object]:
    """Cross-check edge provenance against the accounting contract.

    Internally consistent on the trace alone (edge counts, demand
    count); with a ``repro.metrics/1`` document from the same run, it
    also checks the three-way CLOSE invariant: close-edge trace
    events == CLOSE-COV + CLOSE-CONTRA rule counters ==
    ``graph.close_edges``. An incomplete trace (buffer dump) makes
    the counts lower bounds, so the check degrades to informational —
    ``problems`` stays empty but ``complete`` is False.
    """
    complete = completeness(events)
    close_edges = sum(
        1
        for e in events
        if e.get("kind") == "edge" and e.get("phase") == "close"
    )
    build_edges = sum(
        1
        for e in events
        if e.get("kind") == "edge" and e.get("phase") == "build"
    )
    demands = sum(1 for e in events if e.get("kind") == "demand")
    report: Dict[str, object] = {
        "complete": complete["complete"],
        "events": complete["events"],
        "edge_events": {"build": build_edges, "close": close_edges},
        "demand_events": demands,
        "problems": [],
    }
    if metrics is None:
        return report
    problems: List[str] = report["problems"]
    rules = metrics.get("rules") or {}
    graph = metrics.get("graph") or {}
    rule_total = rules.get("CLOSE-COV", 0) + rules.get("CLOSE-CONTRA", 0)
    graph_close = graph.get("close_edges")
    report["metrics"] = {
        "close_rule_firings": rule_total,
        "graph_close_edges": graph_close,
    }
    if complete["complete"]:
        if close_edges != rule_total:
            problems.append(
                f"close-edge trace events ({close_edges}) != "
                f"CLOSE-COV + CLOSE-CONTRA firings ({rule_total})"
            )
        if graph_close is not None and close_edges != graph_close:
            problems.append(
                f"close-edge trace events ({close_edges}) != "
                f"graph.close_edges ({graph_close})"
            )
    report["ok"] = not problems
    return report


# -- rendering -----------------------------------------------------------------


def render_top(
    events: List[Dict[str, object]],
    metrics=None,
    limit: int = 10,
) -> str:
    """The ``repro obs top`` report.

    Engine events get rule and node hotspots plus the provenance
    line (which ``metrics`` always brings, its verdict being the
    exit code of ``obs top --metrics``); request/response events, or
    a stream with neither, get the request-centric report (per
    kind/component counts, per-verb latency, slowest requests)."""
    from repro.obs.live import render_events_top

    sections: List[str] = []
    if _has_kind(events, ENGINE_EVENT_KINDS):
        sections.append(_render_hotspots(events, limit))
    if sections or metrics is not None:
        sections.append(_render_provenance(events, metrics))
    if _has_kind(events, ("request", "response")) or not sections:
        sections.append(render_events_top(events, limit=limit))
    return "\n\n".join(sections)


def _render_hotspots(events: List[Dict[str, object]], limit: int) -> str:
    from repro.bench import Table

    lines: List[str] = []
    rules = rule_hotspots(events)
    rule_table = Table(["rule", "firings"], title="rule hotspots")
    for name in sorted(rules, key=lambda n: (-rules[n], n)):
        rule_table.add_row(name, rules[name])
    lines.append(rule_table.render())

    node_table = Table(
        ["node", "total", "edges", "demands", "sweeps"],
        title=f"node hotspots (top {limit})",
    )
    for row in node_hotspots(events, limit=limit):
        node_table.add_row(
            row["node"], row["total"], row["edges"],
            row["demands"], row["sweeps"],
        )
    lines.append("")
    lines.append(node_table.render())
    return "\n".join(lines)


def _render_provenance(events: List[Dict[str, object]], metrics) -> str:
    check = provenance_check(events, metrics)
    lines = [
        "trace: {events} events, complete={complete}; edges "
        "build={build} close={close}, demands={demands}".format(
            events=check["events"],
            complete=check["complete"],
            build=check["edge_events"]["build"],
            close=check["edge_events"]["close"],
            demands=check["demand_events"],
        )
    ]
    if metrics is not None:
        verdict = "ok" if check["ok"] else "MISMATCH"
        lines.append(f"close-edge provenance vs metrics: {verdict}")
        for problem in check["problems"]:
            lines.append(f"  {problem}")
    return "\n".join(lines)


def render_waterfall(
    events: List[Dict[str, object]], limit: int = 20
) -> str:
    """The ``repro obs waterfall`` report.

    Engine events get the demand cascade; request/response events (or
    a stream with no engine events at all) get the request waterfall,
    one row per request with the delta/flow work it triggered."""
    from repro.obs.live import render_request_waterfall

    sections: List[str] = []
    if _has_kind(events, ENGINE_EVENT_KINDS):
        sections.append(_render_demand_waterfall(events, limit))
    if _has_kind(events, ("request", "response")) or not sections:
        sections.append(render_request_waterfall(events, limit=limit))
    return "\n\n".join(sections)


def _render_demand_waterfall(
    events: List[Dict[str, object]], limit: int
) -> str:
    from repro.bench import Table

    rows = demand_waterfall(events)
    table = Table(
        ["seq", "node", "sweeps", "close edges"],
        title=(
            f"demand waterfall ({len(rows)} demand transitions, "
            f"showing {min(limit, len(rows))})"
        ),
    )
    for row in rows[:limit]:
        table.add_row(
            row["seq"], row["node"], row["sweeps"], row["close_edges"]
        )
    return table.render()

"""Observability for the LC' engine: metrics, events, stable export.

The paper's empirical claims are numbers — build-vs-close node/edge
counts (Tables 1-2), linear scaling, per-rule firing counts — and as
this reproduction grows toward production scale, every performance PR
must prove its win against the same numbers. This package is the
single home for that accounting:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges and monotonic-clock timers; one registry per engine run;
* :mod:`repro.obs.export` — the versioned JSON metrics document
  (:data:`SCHEMA`), :func:`collect_metrics` to produce it from any
  analysis result, and :func:`validate_metrics`, the structural
  validator that freezes the contract;
* :mod:`repro.obs.profile` — :class:`SpanProfiler`, a hierarchical
  span profiler (phase → rule family → flow pass) with folded-stack
  flamegraph export;
* :mod:`repro.obs.baseline` — the ``repro.obs-diff/1`` regression
  report: diff two metrics documents against per-metric thresholds
  and noise floors, with an exit-code verdict for CI gates;
* :mod:`repro.obs.tracetools` — offline analytics over
  ``repro.events/1`` streams (hotspot tables, demand-sweep waterfall,
  edge-provenance cross-checks against the metrics accounting);
* :mod:`repro.obs.events` — the ``repro.events/1`` request-correlated
  event log: ring-buffered :class:`EventLog` with a JSONL sink, the
  contextvars-based request binding every layer emits and profiles
  through, and the telemetry-envelope validators;
* :mod:`repro.obs.live` — live rendering over event logs and
  ``telemetry`` scrapes (Prometheus text exposition, request-chain
  reassembly for ``repro obs req``, the refreshing ``obs top --live``
  table).

Event logs and span profilers are bound, never passed: no engine
signature takes one. A library caller binds a request context for the
extent of the work it wants recorded::

    with bind_request(log=EventLog(engine_events=True),
                      profiler=SpanProfiler()):
        repro.analyze(program)

See ``docs/OBSERVABILITY.md`` for the schema reference and CLI usage
(``repro analyze --metrics out.json --trace out.jsonl``,
``repro obs diff|flame|top|waterfall``).
"""

from repro._util import lazy_exports

_EXPORTS = {
    "Counter": "repro.obs.metrics",
    "DIFF_SCHEMA": "repro.obs.baseline",
    "ENGINE_EVENT_KINDS": "repro.obs.events",
    "EVENTS_SCHEMA": "repro.obs.events",
    "EVENT_KINDS": "repro.obs.events",
    "EventLog": "repro.obs.events",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "RequestContext": "repro.obs.events",
    "SCHEMA": "repro.obs.export",
    "Span": "repro.obs.profile",
    "SpanProfiler": "repro.obs.profile",
    "Timer": "repro.obs.metrics",
    "bind_request": "repro.obs.events",
    "collect_metrics": "repro.obs.export",
    "current_request": "repro.obs.events",
    "demand_waterfall": "repro.obs.tracetools",
    "diff_documents": "repro.obs.baseline",
    "diff_exit_code": "repro.obs.baseline",
    "emit_event": "repro.obs.events",
    "environment_provenance": "repro.obs.baseline",
    "metrics_to_json": "repro.obs.export",
    "new_request_id": "repro.obs.events",
    "node_hotspots": "repro.obs.tracetools",
    "provenance_check": "repro.obs.tracetools",
    "read_event_log": "repro.obs.events",
    "read_events": "repro.obs.tracetools",
    "render_diff": "repro.obs.baseline",
    "render_live_top": "repro.obs.live",
    "render_prometheus": "repro.obs.live",
    "render_request": "repro.obs.live",
    "request_chain": "repro.obs.live",
    "rule_hotspots": "repro.obs.tracetools",
    "validate_diff": "repro.obs.baseline",
    "validate_event": "repro.obs.events",
    "validate_folded": "repro.obs.profile",
    "validate_metrics": "repro.obs.export",
    "validate_registry_snapshot": "repro.obs.export",
    "validate_telemetry": "repro.obs.events",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

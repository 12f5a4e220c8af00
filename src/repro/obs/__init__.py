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

from repro.obs.baseline import (
    DIFF_SCHEMA,
    diff_documents,
    diff_exit_code,
    environment_provenance,
    render_diff,
    validate_diff,
)
from repro.obs.events import (
    ENGINE_EVENT_KINDS,
    EVENT_KINDS,
    EVENTS_SCHEMA,
    EventLog,
    RequestContext,
    bind_request,
    current_request,
    emit_event,
    new_request_id,
    read_event_log,
    validate_event,
    validate_telemetry,
)
from repro.obs.export import (
    SCHEMA,
    collect_metrics,
    metrics_to_json,
    validate_metrics,
    validate_registry_snapshot,
)
from repro.obs.live import (
    render_live_top,
    render_prometheus,
    render_request,
    request_chain,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, Timer
from repro.obs.profile import Span, SpanProfiler, validate_folded
from repro.obs.tracetools import (
    demand_waterfall,
    node_hotspots,
    provenance_check,
    read_events,
    rule_hotspots,
)

__all__ = [
    "Counter",
    "DIFF_SCHEMA",
    "ENGINE_EVENT_KINDS",
    "EVENTS_SCHEMA",
    "EVENT_KINDS",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RequestContext",
    "SCHEMA",
    "Span",
    "SpanProfiler",
    "Timer",
    "bind_request",
    "collect_metrics",
    "current_request",
    "demand_waterfall",
    "diff_documents",
    "diff_exit_code",
    "emit_event",
    "environment_provenance",
    "metrics_to_json",
    "new_request_id",
    "node_hotspots",
    "provenance_check",
    "read_event_log",
    "read_events",
    "render_diff",
    "render_live_top",
    "render_prometheus",
    "render_request",
    "request_chain",
    "rule_hotspots",
    "validate_diff",
    "validate_event",
    "validate_folded",
    "validate_metrics",
    "validate_registry_snapshot",
    "validate_telemetry",
]

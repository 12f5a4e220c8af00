"""Request-scoped structured event log — the ``repro.events/1`` layer.

Every daemon verb, batch job and CLI invocation mints a
``request_id``; this module is how that id is threaded through the
stack *without* widening every signature between the socket and the
fused sweep:

* :class:`EventLog` — a ring-buffered (bounded, oldest-dropped)
  in-memory log with an optional bounded rotating JSONL file sink and
  listener hooks (the daemon's ``subscribe`` verb streams through
  one);
* :func:`bind_request` — a context manager that binds a
  :class:`RequestContext` (request id, event log, span profiler,
  tally dict) into a :mod:`contextvars` variable for the dynamic
  extent of one request;
* :func:`emit_event` / :func:`tally` / :func:`span` — module-level
  helpers deep layers (:mod:`repro.daemon.delta`,
  :mod:`repro.flow.framework`, :mod:`repro.serve.pool`) call
  unconditionally; they are no-ops when no request is bound, so the
  batch/CLI fast paths pay one ``ContextVar.get`` when telemetry is
  off;
* :func:`current_profiler` / :func:`engine_emitter` — what the
  engines (LC', lint, flow, rules) read once per public entry point
  and keep for that call only, so an unbound run pays one ``is None``
  test per instrumented site.

``contextvars`` makes this correct under the daemon's concurrency
model: each asyncio task carries its own context, so two in-flight
requests on different connections never see each other's ids, while
``await`` points inside one handler keep the binding.

Emission discipline (the <1% overhead budget of E21): layers emit
**per-request aggregates** — one event per flow pass with its step
totals, one per delta-engine mutation with its outcome, one per verb
— never one event per worklist step. The one exception is a log
created with ``engine_events=True`` (``repro analyze|lint --trace``):
it also receives the per-rule, per-edge engine events of
:data:`ENGINE_EVENT_KINDS`.

The event record shape is frozen by :func:`validate_event`; the
``telemetry`` scrape envelope by :func:`validate_telemetry`. Breaking
changes must bump :data:`EVENTS_SCHEMA`.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import os
import time
import uuid
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional

#: Schema tag for event records and the ``telemetry`` scrape envelope.
EVENTS_SCHEMA = "repro.events/1"

#: Event kinds emitted by the instrumented layers. The validator
#: accepts any non-empty kind (forward compatibility, mirroring how
#: repro.metrics/1 accepts unknown counter names); this tuple is what
#: the current code emits and what obs.tracetools renders.
EVENT_KINDS = (
    "request",  # server/CLI accepted a verb or command
    "response",  # ...and finished it (status + seconds + tallies)
    "registry",  # ProjectRegistry create/warm-hit/rehydrate/evict
    "lock",  # per-project lock acquired (with wait time)
    "delta",  # delta-engine mutation outcome (mode + retractions)
    "flow",  # one fused/flow pass (step + update totals)
    "job",  # one batch job (status + cache tier + seconds)
    "slow_request",  # request over threshold; carries folded spans
    "subscribe",  # a live tail attached/detached
    "frame_rejected",  # daemon frame over the size limit
)

#: Fine-grained engine event kinds. They reach only a log that asked
#: for them (:attr:`EventLog.engine_events`, set by ``--trace``): one
#: per rule firing or edge is far past the per-request aggregate
#: budget of the daemon and batch logs.
ENGINE_EVENT_KINDS = (
    "phase",  # LC' build/close phase entered or left
    "rule",  # one application of a named LC' build rule
    "edge",  # an edge actually inserted into the graph
    "demand",  # a node's first incoming edge made it demanded
    "sweep",  # a demand sweep over pre-demand premise edges
    "budget",  # budget truncation / exhaustion / hybrid fallback
    "session",  # incremental session define/query boundaries
    "lint",  # one lint pass (findings + seconds)
)

#: Default in-memory ring capacity (events, not bytes).
DEFAULT_CAPACITY = 4096

#: Default rotating-sink bound: rotate the JSONL file once it passes
#: this many bytes, keeping one ``.1`` predecessor (so disk usage is
#: bounded by ~2x this). ``sink_bytes=None`` never rotates.
DEFAULT_SINK_BYTES = 8 * 1024 * 1024

#: The sink serialises its queued events once this many are pending,
#: so a long engine trace never holds the whole stream in memory.
SINK_FLUSH_EVENTS = 1024


def new_request_id() -> str:
    """A fresh, process-unique request id (16 hex chars)."""
    return uuid.uuid4().hex[:16]


class _RotatingSink:
    """Append JSONL event records to ``path``, rotating at
    ``max_bytes`` (never, when it is None).

    Rotation renames ``path`` to ``path.1`` (clobbering the previous
    ``.1``), so total disk usage is bounded without ever blocking on
    compression or fsync — this sits on the daemon's request path.

    ``write`` only queues the event dict; serialisation and the
    actual file write happen in :meth:`flush` (the daemon calls it
    once per request, and ``write`` calls it every
    :data:`SINK_FLUSH_EVENTS` events). That keeps the engine-side
    emission cost to a list append — the <1% overhead budget (E21)
    has no room for a ``json.dumps`` per event on the hot path.
    """

    def __init__(
        self, path: str, max_bytes: Optional[int] = DEFAULT_SINK_BYTES
    ):
        self.path = path
        self.max_bytes = max_bytes
        self._handle = open(path, "a", encoding="utf-8")
        self._size = self._handle.tell()
        self._pending: List[Dict[str, object]] = []

    def write(self, event: Dict[str, object]) -> None:
        self._pending.append(event)
        if len(self._pending) >= SINK_FLUSH_EVENTS:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        max_bytes = self.max_bytes
        for event in pending:
            line = (
                json.dumps(event, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            if (
                max_bytes is not None
                and self._size + len(line) > max_bytes
                and self._size > 0
            ):
                self._handle.close()
                os.replace(self.path, self.path + ".1")
                self._handle = open(self.path, "a", encoding="utf-8")
                self._size = 0
            self._handle.write(line)
            self._size += len(line)
        self._handle.flush()

    def close(self) -> None:
        self.flush()
        self._handle.close()


class EventLog:
    """Ring-buffered structured event log with an optional file sink.

    ``capacity`` bounds the in-memory ring; once full the **oldest**
    event is dropped and :attr:`dropped` counts exactly how many were
    lost (the daemon surfaces it as ``events_dropped`` in ``status``).
    The file sink, when configured, sees *every* event (it rotates
    instead of dropping; ``sink_bytes=None`` keeps the whole stream in
    one file, as a ``--trace`` must). Listeners are called
    synchronously with each event dict; they must be cheap and must
    not raise.

    ``engine_events`` opts the log into the fine-grained engine events
    (:data:`ENGINE_EVENT_KINDS`): the entry point that creates the log
    decides, so the daemon and batch logs keep to per-request
    aggregates while a ``--trace`` log records every rule firing.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink_path: Optional[str] = None,
        sink_bytes: Optional[int] = DEFAULT_SINK_BYTES,
        engine_events: bool = False,
    ):
        self.capacity = capacity
        self.engine_events = engine_events
        self._ring = deque()
        self.dropped = 0
        self._seq = 0
        self._sink = (
            _RotatingSink(sink_path, sink_bytes) if sink_path else None
        )
        self._listeners: List[Callable[[Dict[str, object]], None]] = []

    # -- emission ----------------------------------------------------------

    def emit(
        self,
        kind: str,
        request_id: Optional[str] = None,
        component: Optional[str] = None,
        **fields,
    ) -> Dict[str, object]:
        event = {
            "seq": self._seq,
            "ts": time.time(),
            "mono": time.perf_counter(),
            "kind": kind,
            "request_id": request_id,
            "component": component,
        }
        event.update(fields)
        self._seq += 1
        if len(self._ring) >= self.capacity:
            self._ring.popleft()
            self.dropped += 1
        self._ring.append(event)
        if self._sink is not None:
            self._sink.write(event)
        for listener in self._listeners:
            listener(event)
        return event

    # -- inspection --------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total events ever emitted (dropped ones included)."""
        return self._seq

    def __len__(self) -> int:
        return len(self._ring)

    def events(
        self,
        kind: Optional[str] = None,
        request_id: Optional[str] = None,
        grep: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """Buffered events, oldest first, with optional filters."""
        out = [
            dict(event)
            for event in self._ring
            if (kind is None or event["kind"] == kind)
            and (request_id is None or event["request_id"] == request_id)
            and (
                grep is None
                or grep in json.dumps(event, sort_keys=True, default=str)
            )
        ]
        if limit is not None and len(out) > limit:
            out = out[-limit:]
        return out

    # -- listeners / lifecycle ---------------------------------------------

    def add_listener(self, listener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def flush(self) -> None:
        """Flush the file sink (no-op without one).

        Emission only queues the event on the sink — serialisation
        and the file write happen here, so the engine hot path pays a
        list append per event. The daemon flushes once per request
        (after the ``response`` event), which is what makes
        ``repro obs tail events.jsonl`` complete up to the last
        finished request."""
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None


class RequestContext:
    """Everything one in-flight request carries through the stack."""

    __slots__ = ("request_id", "log", "profiler", "tallies")

    def __init__(
        self,
        request_id: str,
        log: Optional[EventLog] = None,
        profiler=None,
    ):
        self.request_id = request_id
        self.log = log
        self.profiler = profiler
        #: Per-request numeric totals accumulated by deep layers
        #: (e.g. ``flow.steps``); the request owner reads them at the
        #: end to feed histograms and the ``response`` event.
        self.tallies: Dict[str, float] = {}


_current: contextvars.ContextVar = contextvars.ContextVar(
    "repro_request", default=None
)


def current_request() -> Optional[RequestContext]:
    """The bound :class:`RequestContext`, or None outside a request."""
    return _current.get()


def current_profiler():
    """The bound request's span profiler, or None."""
    ctx = _current.get()
    return ctx.profiler if ctx is not None else None


def engine_emitter(component: str):
    """An ``emit(kind, **fields)`` onto the bound request's log when
    that log asked for engine events, else None.

    Engines call this once per public entry point and keep the result
    for that call only: a long-lived engine must never carry one
    request's log into the next.
    """
    ctx = _current.get()
    if ctx is None or ctx.log is None or not ctx.log.engine_events:
        return None
    return functools.partial(
        ctx.log.emit, request_id=ctx.request_id, component=component
    )


@contextlib.contextmanager
def bind_request(
    request_id: Optional[str] = None,
    log: Optional[EventLog] = None,
    profiler=None,
):
    """Bind a request context for the dynamic extent of a ``with``."""
    ctx = RequestContext(
        request_id or new_request_id(), log=log, profiler=profiler
    )
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


def emit_event(
    kind: str,
    component: Optional[str] = None,
    request_id: Optional[str] = None,
    **fields,
) -> Optional[Dict[str, object]]:
    """Emit onto the bound request's log; no-op when none is bound.

    ``request_id`` overrides the bound id (batch jobs mint per-job ids
    while sharing the batch-level log).
    """
    ctx = _current.get()
    if ctx is None or ctx.log is None:
        return None
    return ctx.log.emit(
        kind,
        request_id=request_id or ctx.request_id,
        component=component,
        **fields,
    )


def tally(name: str, amount: float = 1) -> None:
    """Accumulate a per-request total; no-op outside a request."""
    ctx = _current.get()
    if ctx is None:
        return
    ctx.tallies[name] = ctx.tallies.get(name, 0) + amount


@contextlib.contextmanager
def span(name: str):
    """Profile a section on the bound request's SpanProfiler, if any."""
    profiler = current_profiler()
    if profiler is None:
        yield
        return
    profiler.push(name)
    try:
        yield
    finally:
        profiler.pop()


# -- validation ------------------------------------------------------------


def validate_event(record):
    """Structurally validate one event record; returns it unchanged."""
    from repro.serve.protocol import make_checkers

    fail, expect, check_int, check_number = make_checkers("event record")
    expect(isinstance(record, dict), "$", "expected an object")
    check_int(record.get("seq"), "$.seq")
    expect(record["seq"] >= 0, "$.seq", "expected >= 0")
    check_number(record.get("ts"), "$.ts")
    check_number(record.get("mono"), "$.mono")
    kind = record.get("kind")
    expect(
        isinstance(kind, str) and bool(kind),
        "$.kind",
        "expected a non-empty string",
    )
    for field in ("request_id", "component"):
        value = record.get(field)
        expect(
            value is None or (isinstance(value, str) and bool(value)),
            f"$.{field}",
            "expected null or a non-empty string",
        )
    return record


def validate_telemetry(document):
    """Validate a ``telemetry`` scrape envelope (JSON format)."""
    from repro.obs.export import validate_registry_snapshot
    from repro.serve.protocol import make_checkers

    fail, expect, check_int, check_number = make_checkers(
        "telemetry document"
    )
    expect(isinstance(document, dict), "$", "expected an object")
    expect(
        document.get("schema") == EVENTS_SCHEMA,
        "$.schema",
        f"expected {EVENTS_SCHEMA!r}",
    )
    check_number(document.get("generated_ts"), "$.generated_ts")
    check_number(document.get("uptime_s"), "$.uptime_s")
    expect(document["uptime_s"] >= 0, "$.uptime_s", "expected >= 0")
    check_int(document.get("events_emitted"), "$.events_emitted")
    check_int(document.get("events_dropped"), "$.events_dropped")
    events = document.get("events")
    expect(isinstance(events, list), "$.events", "expected a list")
    for event in events:
        validate_event(event)
    metrics = document.get("metrics")
    expect(isinstance(metrics, dict), "$.metrics", "expected an object")
    validate_registry_snapshot(metrics, "$.metrics")
    slow = document.get("slow")
    expect(isinstance(slow, list), "$.slow", "expected a list")
    for index, entry in enumerate(slow):
        expect(
            isinstance(entry, dict),
            f"$.slow[{index}]",
            "expected an object",
        )
        check_number(entry.get("seconds"), f"$.slow[{index}].seconds")
    projects = document.get("projects")
    expect(isinstance(projects, dict), "$.projects", "expected an object")
    return document


def read_event_log(source) -> List[Dict[str, object]]:
    """Parse an event-log JSONL stream (path, file object, or iterable
    of lines/dicts) into validated event records.

    Every record must pass :func:`validate_event`; malformed input
    raises :class:`ValueError` naming the line.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_event_log(handle)
    records = []
    for lineno, item in enumerate(source, 1):
        if isinstance(item, (str, bytes)):
            line = item.strip()
            if not line:
                continue
            try:
                item = json.loads(line)
            except ValueError as error:
                raise ValueError(
                    f"event line {lineno}: invalid JSON ({error})"
                ) from None
        try:
            records.append(validate_event(item))
        except ValueError as error:
            raise ValueError(f"event line {lineno}: {error}") from None
    return records

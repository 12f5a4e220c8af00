"""In-memory span recorder for the traced pass.

The traced pass replays a workload in-process and records a span
around every call into a layer: calls the benchmark makes itself
(``Recorder.span``) and calls the program makes internally, by wrapping
the layer's public functions and methods for the duration of the pass
(:func:`install_layers`). Nothing inside ``src/`` is edited; the wrappers
are removed when the pass ends.

A span carries a name, start, end, parent and request id. A layer's
self time is its spans' durations minus the parts their child spans
cover. Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import types
from typing import Dict, List, Optional, Tuple

from repro.obs.events import bind_request, current_request

_clock = time.perf_counter


class Recorder:
    def __init__(self) -> None:
        #: Flat span table: [name, start, end, parent index, request id].
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.paused = False
        self._patches: List[Tuple[object, str, object]] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        #: Hand lint results compared with their rules twin, and how
        #: many of them differed.
        self.twins = 0
        self.twin_mismatches = 0
        #: Request-id prefix for the pass being replayed.
        self.prefix = ""
        self._lookups = 0
        self._open_lookups: Dict[str, List[str]] = {}

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str, rid: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent][4]
        self.spans.append([name, _clock(), 0.0, parent, rid])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _clock()
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - unbalanced wrapper
            raise RuntimeError(f"span stack corrupted at {self.spans[index][0]}")

    def span(self, name: str, rid: Optional[str] = None):
        recorder = self

        class _Span:
            def __enter__(self):
                self.index = recorder.begin(name, rid)
                return self

            def __exit__(self, *exc):
                recorder.end(self.index)

        return _Span()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        return any(self.spans[i][0] == name for i in self._stack)

    def start_batch(self, prefix: str) -> None:
        """Number the next batch's jobs from 0 under ``prefix``."""
        self.prefix = prefix
        self._lookups = 0

    def cache_rid(self, key: str, lookup: bool) -> str:
        """Request ids for cache spans: the n-th lookup belongs to the
        n-th job of the batch; a store belongs to the oldest open
        lookup of the same key."""
        if lookup:
            rid = f"{self.prefix}job-{self._lookups}"
            self._lookups += 1
            self._open_lookups.setdefault(key, []).append(rid)
            return rid
        pending = self._open_lookups.get(key)
        return pending.pop(0) if pending else None

    def bench(self, fn):
        """Run the benchmark's own bookkeeping ``fn`` as a ``bench``
        span, which the layer table excludes from the traced wall."""
        parent = self._stack[-1] if self._stack else -1
        start = _clock()
        try:
            return fn()
        finally:
            self.spans.append(["bench", start, _clock(), parent, None])

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str, before=None, after=None, rid_of=None):
        """A wrapper recording ``name`` around ``fn``. ``before(args,
        kwargs)`` runs before the span opens and its value is passed to
        ``after(state, args, kwargs, result)`` after it closes, so count
        bookkeeping is not charged to the layer."""
        recorder = self

        def wrapper(*args, **kwargs):
            if recorder.paused:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            rid = rid_of(args, kwargs) if rid_of is not None else None
            index = recorder.begin(name, rid)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(index)
            if after is not None:
                after(state, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch_function(self, module_name: str, attr: str, name: str, **hooks) -> bool:
        """Wrap a module-level function everywhere the program holds a
        reference to it (``from x import f`` copies the binding)."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module else None
        if original is None:
            return False
        wrapper = self.wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)
        return True

    def patch_method(self, cls, attr: str, name: str, **hooks) -> bool:
        original = cls.__dict__.get(attr)
        if original is None:
            return False
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **hooks))
        return True

    def patch_attr(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def json_shim(self, name: str = "export.json"):
        """A stand-in for the ``json`` module whose ``dumps`` is timed."""
        shim = types.ModuleType("json")
        shim.__dict__.update(
            {k: v for k, v in vars(json).items() if not k.startswith("__")}
        )
        shim.dumps = self.wrap(json.dumps, name)
        return shim

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        self.stop_gc()

    # -- gc -------------------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _clock()
        else:
            self.gc_pause_s += _clock() - self._gc_start
            self.gc_collections += 1

    def start_gc(self) -> None:
        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def total(self, name: str) -> float:
        """Inclusive seconds of outermost spans called ``name``."""
        seconds = 0.0
        for name_i, start, end, parent, _ in self.spans:
            if name_i != name:
                continue
            if parent >= 0 and self._has_ancestor(parent, name):
                continue
            seconds += end - start
        return seconds

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def requests(self) -> int:
        return len({s[4] for s in self.spans if s[4] is not None})

    def dump(self, path: str) -> None:
        """Write the spans out (one JSON object per line) at run end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent if parent >= 0 else None, "request": rid,
                }) + "\n")


# -- the layer map --------------------------------------------------------------


def _expr_nodes(expr) -> int:
    return sum(1 for _ in expr.walk())


def install_layers(rec: Recorder) -> None:
    """Wrap the public entry points of every layer (see README.md for
    the layer list). Missing targets are skipped, so the benchmark keeps
    running against a program whose internals moved."""
    import repro.cfa.standard  # noqa: F401 - make sure every layer is loaded
    import repro.core.lc as lc
    import repro.core.queries as queries
    import repro.export  # noqa: F401
    import repro.lang.parser  # noqa: F401
    import repro.lint  # noqa: F401
    import repro.serve.cache as cache
    import repro.types.infer  # noqa: F401

    def count_program(state, args, kwargs, result):
        rec.add("lang.parse.nodes", result.size)

    def count_expr(state, args, kwargs, result):
        rec.add("lang.parse.nodes", rec.bench(lambda: _expr_nodes(result)))

    rec.patch_function("repro.lang.parser", "parse", "lang.parse", after=count_program)
    rec.patch_function("repro.lang.parser", "parse_expr", "lang.parse", after=count_expr)
    rec.patch_function("repro.types.infer", "infer_types", "types.infer")

    rec.patch_method(lc.LCEngine, "run", "core.lc")
    rec.patch_method(lc.LCEngine, "build", "core.lc", before=_graph_size,
                     after=lambda state, a, k, r: _count_growth(rec, "core.build.nodes", state, a[0]))
    rec.patch_method(lc.LCEngine, "close", "core.lc", before=_graph_size,
                     after=lambda state, a, k, r: _count_growth(rec, "core.close.nodes", state, a[0]))

    def query_before(args, kwargs):
        if rec.inside("core.query"):
            return None
        return args[0].query_visited_nodes

    def query_after(state, args, kwargs, result):
        if state is not None:
            rec.add("core.query.visited_nodes", args[0].query_visited_nodes - state)

    for method in ("tokens_at", "labels_of", "labels_of_var", "is_label_in",
                   "expressions_with_label", "all_label_sets"):
        rec.patch_method(queries.SubtransitiveCFA, method, "core.query",
                         before=query_before, after=query_after)

    rec.patch_function("repro.cfa.standard", "analyze_standard", "cfa.standard")
    rec.patch_function("repro.export", "result_to_dict", "export.envelope",
                       after=lambda s, a, k, r: rec.add(
                           "export.envelope_bytes", rec.bench(lambda: len(_canonical(r)))))
    rec.patch_function("repro.export", "canonical_json", "export.json")
    rec.patch_function("repro.export", "result_to_json", "export.json")
    rec.patch_method(cache.ResultCache, "get", "serve.cache.get",
                     rid_of=lambda a, k: rec.cache_rid(a[1], lookup=True))
    rec.patch_method(cache.ResultCache, "put", "serve.cache.put",
                     rid_of=lambda a, k: rec.cache_rid(a[1], lookup=False))

    run_lints = sys.modules["repro.lint.engine"].run_lints

    def lint_wrapper(*args, **kwargs):
        if rec.paused:
            return run_lints(*args, **kwargs)
        ctx = current_request()
        if ctx is None:
            # Flow steps are read from the program's own per-request
            # tallies; bind a private request when the caller has none.
            with bind_request("perfbench"):
                return lint_wrapper(*args, **kwargs)
        steps = ctx.tallies.get("flow.steps", 0)
        index = rec.begin("lint")
        try:
            result = run_lints(*args, **kwargs)
        finally:
            rec.end(index)
        rec.add("flow.steps", ctx.tallies.get("flow.steps", 0) - steps)
        rec.add("lint.findings", len(result.findings))
        hand = kwargs.get("impl", "hand") == "hand" and not kwargs.get("explain")
        if hand and result.engine == "subtransitive":
            _run_twin(rec, run_lints, args, kwargs, result)
        return result

    lint_wrapper.__wrapped__ = run_lints
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for key, value in list(vars(mod).items()):
                if value is run_lints:
                    rec.patch_attr(mod, key, lint_wrapper)


def _run_twin(rec: Recorder, run_lints, args, kwargs, hand) -> None:
    """Run the ``impl="rules"`` twin on the same program and graph as
    one opaque ``rules.lint`` span (its inner layers are not charged),
    keeping both results for the findings comparison."""
    from repro.obs.metrics import MetricsRegistry

    twin_kwargs = dict(kwargs, impl="rules", registry=MetricsRegistry())
    twin_kwargs.pop("profiler", None)
    twin_kwargs.pop("tracer", None)
    parent = rec._stack[-1] if rec._stack else -1
    rec.paused = True
    start = _clock()
    try:
        with bind_request("perfbench-twin"):
            twin = run_lints(*args, **twin_kwargs)
    finally:
        end = _clock()
        rec.paused = False
    rec.spans.append(["rules.lint", start, end, parent, None])
    rec.twins += 1
    if rec.bench(lambda: _findings(hand) != _findings(twin)):
        rec.twin_mismatches += 1


def _findings(result) -> list:
    return [finding.to_dict() for finding in result.findings]


def _graph_size(args, kwargs):
    engine = args[0]
    return (engine.factory.node_count, engine.graph.edge_count,
            engine.stats.demanded_nodes)


def _count_growth(rec: Recorder, nodes_name: str, before, engine) -> None:
    """Nodes, edges and demanded operators one engine phase created."""
    nodes, edges, demanded = _graph_size((engine,), None)
    rec.add(nodes_name, nodes - before[0])
    rec.add("core.edges", edges - before[1])
    rec.add("core.demanded_nodes", demanded - before[2])


def _canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)

"""The observability subsystem: metric primitives, engine events, the
``repro.metrics/1`` export schema, and the engine-accounting
invariants they surface.

The load-bearing regression here is the closure-rule accounting: the
``CLOSE-COV``/``CLOSE-CONTRA`` counters must count *edges actually
added*, so that in any batch run their sum equals
``stats.close_edges`` exactly. The pre-fix engine incremented them per
attempted insertion (duplicates and capped targets included), which
made per-rule breakdowns useless for Table 1-style accounting.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.hybrid import analyze_hybrid
from repro.core.queries import analyze_subtransitive
from repro.errors import AnalysisBudgetExceeded
from repro.lang import parse
from repro.obs import (
    ENGINE_EVENT_KINDS,
    EventLog,
    MetricsRegistry,
    SCHEMA,
    bind_request,
    collect_metrics,
    metrics_to_json,
    validate_event,
    validate_metrics,
)
from repro.session import AnalysisSession
from repro.workloads.cubic import make_cubic_program
from repro.workloads.generators import random_typed_program

SAMPLES = [
    "let id = fn[id] x => x in id (fn[g] y => y)",
    "(fn[f] x => x x) (fn[g] y => y)",
    "let twice = fn[twice] f => fn[inner] x => f (f x) in "
    "twice (fn[inc] y => y + 1) 3",
]


# ---------------------------------------------------------------------------
# metric primitives


class TestPrimitives:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("rules.TEST")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        # get-or-create: same object on re-request.
        assert registry.counter("rules.TEST") is counter

    def test_gauge(self):
        gauge = MetricsRegistry().gauge("level")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_timer(self):
        timer = MetricsRegistry().timer("phase.test")
        with timer:
            pass
        timer.observe(0.5)
        assert timer.count == 2
        assert timer.last_seconds == 0.5
        assert timer.total_seconds >= 0.5

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.5)
        registry.timer("t").observe(0.25)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 2, "b": 1}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["timers"]["t"]["count"] == 1
        # snapshot must be JSON-safe as-is.
        json.dumps(snap)


def engine_log(**kwargs):
    """An event log that asked for engine events (what ``--trace``
    binds)."""
    return EventLog(engine_events=True, **kwargs)


class TestTracer:
    """The engine trace: an engine-event log bound around a run."""

    def test_ring_buffer_bounds_memory(self):
        log = engine_log(capacity=4)
        with bind_request(log=log):
            repro.analyze(parse(SAMPLES[2]))
        assert log.emitted > 4
        assert log.dropped == log.emitted - 4
        buffered = log.events()
        assert [e["seq"] for e in buffered] == list(
            range(log.emitted - 4, log.emitted)
        )

    def test_kind_filter(self):
        log = engine_log()
        with bind_request(log=log):
            repro.analyze(parse(SAMPLES[0]))
        rules = log.events("rule")
        assert rules
        assert {e["rule"] for e in rules} == {"ABS", "APP"}
        assert all(e["component"] == "core" for e in rules)

    def test_jsonl_sink_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        log = engine_log(sink_path=str(path), sink_bytes=None)
        with bind_request("req-trace", log=log):
            repro.analyze(parse(SAMPLES[0]))
        log.close()
        events = [
            validate_event(json.loads(line))
            for line in path.read_text().splitlines()
        ]
        assert len(events) == log.emitted
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert {e["request_id"] for e in events} == {"req-trace"}
        assert events[0]["kind"] == "phase"

    def test_aggregate_log_gets_no_engine_events(self):
        # The daemon and batch logs keep to per-request aggregates:
        # an engine run under a default log emits nothing onto it.
        log = EventLog()
        with bind_request(log=log):
            repro.analyze(parse(SAMPLES[0]))
        assert log.emitted == 0

    def test_sink_never_holds_the_whole_trace(self, tmp_path):
        from repro.obs.events import SINK_FLUSH_EVENTS

        path = tmp_path / "trace.jsonl"
        log = engine_log(sink_path=str(path), sink_bytes=None)
        with bind_request(log=log):
            repro.analyze(make_cubic_program(12))
        assert log.emitted > SINK_FLUSH_EVENTS
        # Written in fixed-size batches while the run was going.
        written = len(path.read_text().splitlines())
        assert written >= log.emitted - SINK_FLUSH_EVENTS
        log.close()
        assert len(path.read_text().splitlines()) == log.emitted


# ---------------------------------------------------------------------------
# engine integration


class TestEngineTracing:
    def test_engine_emits_known_kinds_in_order(self):
        log = engine_log()
        with bind_request(log=log):
            cfa = repro.analyze(parse(SAMPLES[0]))
        for site in cfa.program.applications:
            cfa.may_call(site)
        kinds = {e["kind"] for e in log.events()}
        assert kinds <= set(ENGINE_EVENT_KINDS)
        assert {"phase", "rule", "edge"} <= kinds
        phases = [(e["phase"], e["action"]) for e in log.events("phase")]
        assert phases == [
            ("build", "start"),
            ("build", "end"),
            ("close", "start"),
            ("close", "end"),
        ]

    def test_untraced_run_by_default(self):
        from repro.core.lc import LCEngine

        engine = LCEngine(parse(SAMPLES[0]))
        assert engine.trace is None
        engine.run()  # must not emit (or fail) with nothing bound

    def test_engine_keeps_no_instruments_after_a_run(self):
        from repro.core.lc import LCEngine

        engine = LCEngine(parse(SAMPLES[0]))
        with bind_request(log=engine_log()):
            engine.run()
        assert engine.trace is None
        assert engine.factory.trace is None
        assert engine.profiler is None

    def test_hybrid_fallback_is_a_budget_event(self):
        log = engine_log()
        with bind_request(log=log):
            result = analyze_hybrid(
                parse("(fn[w] x => x x) (fn[w2] y => y y)")
            )
        assert result.engine == "standard"
        budget = log.events("budget")
        assert budget[-1]["resource"] == "hybrid"
        assert budget[-1]["action"] == "fallback"

    def test_session_events(self):
        log = engine_log()
        session = AnalysisSession()
        with bind_request(log=log):
            session.define("id", "fn[id] x => x")
            session.define("use", "id id")
        entries = log.events("session")
        assert [(e["op"], e["name"]) for e in entries] == [
            ("define", "id"),
            ("define", "use"),
        ]
        assert all(e["component"] == "session" for e in entries)
        # The session's engine work is traced under the same request.
        assert log.events("edge")
        # Nothing bound, nothing recorded: the session keeps no log.
        session.define("more", "use")
        assert len(log.events("session")) == 2


class TestCloseRuleAccounting:
    """CLOSE-COV + CLOSE-CONTRA == close_edges, exactly."""

    @pytest.mark.parametrize("source", SAMPLES)
    def test_on_samples(self, source):
        sub = repro.build_subtransitive_graph(parse(source))
        rules = sub.stats.rule_applications
        assert (
            rules["CLOSE-COV"] + rules["CLOSE-CONTRA"]
            == sub.stats.close_edges
        )

    def test_on_cubic_family(self):
        sub = repro.build_subtransitive_graph(make_cubic_program(24))
        rules = sub.stats.rule_applications
        assert (
            rules["CLOSE-COV"] + rules["CLOSE-CONTRA"]
            == sub.stats.close_edges
        )
        assert sub.stats.close_edges == len(sub.close_edges)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1_000_000))
    def test_property_counters_vs_edge_counts(self, seed):
        prog = random_typed_program(seed, fuel=20)
        try:
            sub = repro.build_subtransitive_graph(prog)
        except AnalysisBudgetExceeded:
            return
        rules = sub.stats.rule_applications
        assert (
            rules["CLOSE-COV"] + rules["CLOSE-CONTRA"]
            == sub.stats.close_edges
        ), seed
        assert sub.stats.total_edges == sub.graph.edge_count, seed
        assert sub.stats.close_edges == len(sub.close_edges), seed


# ---------------------------------------------------------------------------
# metrics export schema


class TestMetricsDocument:
    def _analysed(self, source=None):
        program = parse(source or SAMPLES[0])
        cfa = analyze_subtransitive(program)
        for site in program.applications:
            cfa.may_call(site)
        return cfa

    def test_round_trip(self):
        document = collect_metrics(self._analysed())
        validate_metrics(document)
        decoded = json.loads(metrics_to_json(document))
        assert validate_metrics(decoded) == decoded
        assert decoded["schema"] == SCHEMA

    def test_sections_cover_acceptance_surface(self):
        document = collect_metrics(self._analysed())
        phases = document["phases"]
        assert {"build", "close", "total"} <= set(phases)
        for phase in ("build", "close"):
            assert {"nodes", "edges", "seconds"} <= set(phases[phase])
        rules = document["rules"]
        assert set(rules) == {
            "ABS-1", "ABS-2", "APP-1", "APP-2",
            "CLOSE-COV", "CLOSE-CONTRA",
        }
        assert {"created", "budget", "budget_used", "demanded"} <= set(
            document["nodes"]
        )
        assert document["queries"]["count"] >= 1
        assert document["queries"]["visited_nodes"] >= 1

    def test_counts_match_stats(self):
        cfa = self._analysed()
        document = collect_metrics(cfa)
        stats = cfa.stats
        assert document["phases"]["build"]["edges"] == stats.build_edges
        assert document["phases"]["close"]["edges"] == stats.close_edges
        assert document["graph"]["edges"] == stats.total_edges
        assert document["rules"] == dict(stats.rule_applications)
        assert document["queries"]["count"] == cfa.query_count

    def test_validator_rejects_missing_section(self):
        document = collect_metrics(self._analysed())
        del document["phases"]
        with pytest.raises(ValueError, match="phases"):
            validate_metrics(document)

    def test_validator_rejects_wrong_type(self):
        document = collect_metrics(self._analysed())
        document["rules"]["ABS-1"] = "three"
        with pytest.raises(ValueError, match="ABS-1"):
            validate_metrics(document)

    def test_hybrid_fallback_document(self):
        registry = MetricsRegistry()
        result = analyze_hybrid(
            parse("(fn[w] x => x x) (fn[w2] y => y y)"),
            registry=registry,
        )
        document = validate_metrics(collect_metrics(result))
        assert document["engine"]["driver"] == "hybrid"
        assert document["engine"]["fallback"] is True
        assert result.fallback_reason in ("budget", "inference")
        assert registry.counter("hybrid.fallbacks").value == 1

    def test_hybrid_subtransitive_document(self):
        result = analyze_hybrid(parse(SAMPLES[0]))
        document = validate_metrics(collect_metrics(result))
        assert document["engine"]["fallback"] is False
        assert document["rules"] is not None


class TestSessionMetrics:
    def test_session_document_validates(self):
        session = AnalysisSession()
        session.define("id", "fn[id] x => x")
        session.define("use", "id id")
        session.query("use")
        document = validate_metrics(session.metrics())
        section = document["session"]
        assert section["defines"] == 2
        assert section["queries"] == 1
        ops = [entry["op"] for entry in section["history"]]
        assert ops == ["define", "define", "query"]
        assert all(
            entry["nodes_added"] >= 0 for entry in section["history"]
        )

    def test_history_skips_failed_operations(self):
        from repro.errors import ScopeError

        session = AnalysisSession()
        session.define("a", "fn[dup] x => x")
        with pytest.raises(ScopeError):
            session.define("b", "fn[dup] y => y")
        assert [e["op"] for e in session.history] == ["define"]


# ---------------------------------------------------------------------------
# timer distribution fields (min/max/mean)


class TestTimerDistribution:
    def test_min_max_mean_track_observations(self):
        timer = MetricsRegistry().timer("t")
        for seconds in (0.4, 0.1, 0.7):
            timer.observe(seconds)
        assert timer.min_seconds == 0.1
        assert timer.max_seconds == 0.7
        assert timer.mean_seconds == pytest.approx(0.4)

    def test_zero_observations_report_zero(self):
        timer = MetricsRegistry().timer("t")
        assert timer.min_seconds == 0.0
        assert timer.max_seconds == 0.0
        assert timer.mean_seconds == 0.0

    def test_snapshot_carries_distribution_fields(self):
        registry = MetricsRegistry()
        registry.timer("t").observe(0.25)
        snap = registry.snapshot()["timers"]["t"]
        assert snap["min_seconds"] == 0.25
        assert snap["max_seconds"] == 0.25
        assert snap["mean_seconds"] == 0.25

    def test_validator_accepts_and_type_checks_new_fields(self):
        prog = parse(SAMPLES[0])
        cfa = analyze_subtransitive(prog)
        document = validate_metrics(collect_metrics(cfa))
        timers = document["registry"]["timers"]
        assert timers  # engine runs always time their phases
        name = next(iter(timers))
        # Same schema tag: the fields are additive, not a v2.
        assert document["schema"] == SCHEMA
        # Older documents without the fields stay valid...
        for key in ("min_seconds", "max_seconds", "mean_seconds"):
            legacy = json.loads(metrics_to_json(document))
            del legacy["registry"]["timers"][name][key]
            validate_metrics(legacy)
        # ...but present-and-wrongly-typed is rejected by path.
        broken = json.loads(metrics_to_json(document))
        broken["registry"]["timers"][name]["max_seconds"] = "slow"
        with pytest.raises(ValueError, match="max_seconds"):
            validate_metrics(broken)


# ---------------------------------------------------------------------------
# sink lifecycle under mid-run failure


class TestTracerSinkLifecycle:
    def test_sink_flushed_when_analysed_program_raises(self, tmp_path):
        # A mid-run budget trip must still leave the partial trace on
        # disk once the log is closed — it is exactly what the
        # post-mortem needs.
        path = tmp_path / "trace.jsonl"
        log = engine_log(sink_path=str(path), sink_bytes=None)
        try:
            with pytest.raises(AnalysisBudgetExceeded):
                with bind_request(log=log):
                    analyze_subtransitive(
                        make_cubic_program(8), node_budget=5
                    )
        finally:
            log.close()
        events = [
            validate_event(json.loads(line))
            for line in path.read_text().splitlines()
        ]
        assert events  # the events up to the abort reached disk
        assert events[-1]["seq"] == len(events) - 1
        assert log.emitted == len(events)
        assert events[-1]["kind"] == "budget"
        assert events[-1]["action"] == "exhausted"

    def test_close_is_idempotent(self, tmp_path):
        log = engine_log(sink_path=str(tmp_path / "t.jsonl"))
        log.emit("phase", phase="build", action="start")
        log.close()
        log.close()  # second close must be a no-op, not a crash


# ---------------------------------------------------------------------------
# ring-buffer properties


class TestRingBufferProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=16),
        kinds=st.lists(
            st.sampled_from(["rule", "edge", "demand"]), max_size=64
        ),
    )
    def test_kind_filter_preserves_seq_order(self, capacity, kinds):
        log = EventLog(capacity=capacity)
        for kind in kinds:
            log.emit(kind)
        seqs = [event["seq"] for event in log.events("rule")]
        assert seqs == sorted(seqs)
        # And it is exactly the buffered subsequence of that kind.
        expected = [
            seq
            for seq, kind in enumerate(kinds)
            if kind == "rule" and seq >= len(kinds) - capacity
        ]
        assert seqs == expected

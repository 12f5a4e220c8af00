"""The span profiler: tree mechanics, folded-stack export, engine
binding, exception balance, and the serve-layer plumbing.

A profiler records only while bound into the request context
(``bind_request(profiler=...)``), and every engine reads it once per
entry point, so the acceptance criterion is structural — profiled runs
must produce a well-formed folded-stack export whose top-level spans
are the engine phases, while unprofiled runs never touch a profiler.
"""

import pytest

import repro
from repro.core.hybrid import analyze_hybrid
from repro.core.queries import analyze_subtransitive
from repro.errors import AnalysisBudgetExceeded
from repro.lang import parse
from repro.lint import run_lints
from repro.obs import Span, SpanProfiler, bind_request, validate_folded
from repro.workloads.cubic import make_cubic_program

SOURCE = (
    "let twice = fn[twice] f => fn[inner] x => f (f x) in "
    "twice (fn[inc] y => y + 1) 3"
)


class TestSpanTree:
    def test_push_pop_builds_interned_tree(self):
        profiler = SpanProfiler()
        for _ in range(3):
            profiler.push("a")
            profiler.push("b")
            profiler.pop()
            profiler.pop()
        assert profiler.depth == 0
        spans = dict(profiler.walk())
        assert set(spans) == {("a",), ("a", "b")}
        assert spans[("a",)].count == 3
        assert spans[("a", "b")].count == 3

    def test_pop_at_root_raises(self):
        with pytest.raises(RuntimeError):
            SpanProfiler().pop()

    def test_span_context_manager_balances_on_error(self):
        profiler = SpanProfiler()
        with pytest.raises(ValueError):
            with profiler.span("outer"):
                with profiler.span("inner"):
                    raise ValueError("boom")
        assert profiler.depth == 0
        assert dict(profiler.walk())[("outer", "inner")].count == 1

    def test_self_seconds_never_negative(self):
        parent = Span("p", None)
        child = Span("c", parent)
        parent.children["c"] = child
        parent.seconds = 0.5
        child.seconds = 0.7  # clock jitter: child measured longer
        assert parent.self_seconds == 0.0

    def test_recursive_name_nests_as_child(self):
        profiler = SpanProfiler()
        profiler.push("sweep")
        profiler.push("sweep")
        profiler.pop()
        profiler.pop()
        assert {path for path, _ in profiler.walk()} == {
            ("sweep",),
            ("sweep", "sweep"),
        }


class TestFoldedExport:
    def test_folded_lines_validate(self):
        profiler = SpanProfiler()
        with profiler.span("phase.build"):
            pass
        with profiler.span("phase.close"):
            with profiler.span("sweep"):
                pass
        lines = profiler.folded()
        assert validate_folded(lines) is lines
        stacks = {line.rpartition(" ")[0] for line in lines}
        assert stacks == {
            "phase.build",
            "phase.close",
            "phase.close;sweep",
        }

    def test_weights_are_scaled_self_time(self):
        profiler = SpanProfiler()
        profiler.push("a")
        profiler.pop()
        span = dict(profiler.walk())[("a",)]
        span.seconds = 0.001234
        (line,) = profiler.folded()
        assert line == "a 1234"

    def test_structural_characters_sanitised(self):
        profiler = SpanProfiler()
        with profiler.span("has space;and semi"):
            pass
        validate_folded(profiler.folded())

    @pytest.mark.parametrize(
        "bad",
        [
            ["a"],  # no weight
            ["a -1"],  # negative weight
            ["a 1.5"],  # fractional weight
            [" 3"],  # empty stack
            ["a;;b 3"],  # empty frame
        ],
    )
    def test_validate_folded_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_folded(bad)


class TestEngineProfile:
    def test_profiled_run_has_phase_spans(self):
        profiler = SpanProfiler()
        program = make_cubic_program(8)
        with bind_request(profiler=profiler):
            cfa = analyze_subtransitive(program)
        for site in program.nontrivial_applications():
            cfa.may_call(site)
        paths = {path for path, _ in profiler.walk()}
        assert ("phase.build",) in paths
        assert ("phase.close",) in paths
        assert ("phase.close", "sweep") in paths
        # Rule-family attribution under the sweep.
        assert any(
            path[-1] in ("rule.CLOSE-COV", "rule.CLOSE-CONTRA")
            for path in paths
            if len(path) == 3
        )
        validate_folded(profiler.folded())
        assert profiler.depth == 0

    def test_unprofiled_by_default(self):
        from repro.core.lc import LCEngine

        engine = LCEngine(parse(SOURCE))
        assert engine.profiler is None
        engine.run()  # nothing bound: no profiler to touch
        profiler = SpanProfiler()
        with bind_request(profiler=profiler):
            engine.run()
        # Read for the run only, never kept on the engine.
        assert engine.profiler is None
        assert ("phase.build",) in dict(profiler.walk())

    def test_lint_spans(self):
        profiler = SpanProfiler()
        program = parse(SOURCE)
        with bind_request(profiler=profiler):
            cfa = analyze_subtransitive(program)
            run_lints(program, cfa)
        paths = {path for path, _ in profiler.walk()}
        assert any(path[0].startswith("lint.") for path in paths)
        # The fused flow sweep nests under the pass that demanded it.
        assert any(
            len(path) == 2
            and path[0].startswith("lint.")
            and path[1].startswith("flow.")
            for path in paths
        )
        validate_folded(profiler.folded())

    def test_budget_trip_leaves_profiler_balanced(self):
        profiler = SpanProfiler()
        with pytest.raises(AnalysisBudgetExceeded):
            with bind_request(profiler=profiler):
                analyze_subtransitive(make_cubic_program(8), node_budget=5)
        assert profiler.depth == 0
        validate_folded(profiler.folded())

    def test_hybrid_fallback_profiles_both_attempts(self):
        profiler = SpanProfiler()
        with bind_request(profiler=profiler):
            hybrid = analyze_hybrid(make_cubic_program(8), node_budget=5)
        assert hybrid.engine == "standard"
        paths = {path for path, _ in profiler.walk()}
        # The abandoned LC' attempt and the fallback both show up.
        assert ("phase.build",) in paths
        assert ("hybrid.fallback",) in paths
        assert profiler.depth == 0

    def test_analyze_kwarg_dispatch(self):
        # Whichever driver ``algorithm=`` dispatches to reads the
        # bound profiler; nothing is passed through analyze itself.
        for algorithm in ("subtransitive", "hybrid", "polyvariant"):
            profiler = SpanProfiler()
            with bind_request(profiler=profiler):
                repro.analyze(parse(SOURCE), algorithm=algorithm)
            assert ("phase.close",) in dict(profiler.walk()), algorithm
            assert profiler.total_seconds() > 0.0


class TestServeProfile:
    def _runner(self, profile):
        from repro.serve import BatchRunner

        return BatchRunner(jobs=1, profile=profile)

    def test_profile_rides_the_result_not_the_envelope(self):
        from repro.serve import jobs_from_sources

        batch = self._runner(True).run(jobs_from_sources([SOURCE]))
        (result,) = batch.results
        assert result.profile is not None
        validate_folded(result.profile)
        assert "profile" not in (result.envelope or {})
        stacks = {line.rpartition(" ")[0] for line in result.profile}
        assert "job.analyze;phase.close" in stacks

    @pytest.mark.parametrize(
        "algorithm", ["standard", "dtc", "equality", "polyvariant"]
    )
    def test_profile_covers_every_algorithm(self, algorithm):
        from repro.serve import BatchRunner, jobs_from_sources

        runner = BatchRunner(
            jobs=1, profile=True,
            options={"algorithm": algorithm, "lint": True},
        )
        (result,) = runner.run(jobs_from_sources([SOURCE])).results
        validate_folded(result.profile)
        stacks = {line.rpartition(" ")[0] for line in result.profile}
        assert {"job.parse", "job.analyze", "job.lint"} <= stacks

    def test_profile_off_by_default(self):
        from repro.serve import jobs_from_sources

        batch = self._runner(False).run(jobs_from_sources([SOURCE]))
        assert batch.results[0].profile is None

    def test_profile_does_not_shard_the_cache(self):
        # Profiling is a payload flag, not an analysis option: a
        # profiled and an unprofiled run of the same source must share
        # one cache entry (the profiled run warming it for the other).
        from repro.serve import jobs_from_sources
        from repro.serve.cache import ResultCache

        cache = ResultCache()
        runner_on = self._runner(True)
        runner_on.cache = cache
        runner_on.run(jobs_from_sources([SOURCE]))
        runner_off = self._runner(False)
        runner_off.cache = cache
        batch = runner_off.run(jobs_from_sources([SOURCE]))
        (result,) = batch.results
        assert result.cache == "memory"
        assert result.profile is None  # cache hits carry no profile

    def test_job_record_carries_validated_profile(self):
        from repro.serve import jobs_from_sources
        from repro.serve.protocol import job_record, validate_batch_record

        batch = self._runner(True).run(jobs_from_sources([SOURCE]))
        record = validate_batch_record(job_record(batch.results[0]))
        validate_folded(record["profile"])

    def test_job_record_rejects_malformed_profile(self):
        from repro.serve import jobs_from_sources
        from repro.serve.protocol import job_record, validate_batch_record

        batch = self._runner(True).run(jobs_from_sources([SOURCE]))
        record = job_record(batch.results[0])
        record["profile"] = ["not a folded line"]
        with pytest.raises(ValueError, match=r"\$\.profile"):
            validate_batch_record(record)

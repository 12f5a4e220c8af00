"""Correctness of the semi-naive delta engine behind the daemon.

The contract under test (docs/DAEMON.md): after **every** mutation the
warm graph's ``repro.result/1`` envelope is byte-identical to a cold
analysis of the project's rendered source, and the graph passes the
full sanitizer. Fallbacks are allowed (the state is rebuilt by replay)
but must be tagged with a reason from ``FALLBACK_REASONS``.

Lint findings carry source positions, and warm per-definition parses
number lines from 1 while the cold rendered chain shifts them — so
lint output is compared byte-identical against a *fresh replay*
``ProjectAnalysis`` (same wiring, same positions) and
modulo-positions against the true cold run.
"""

import json

import pytest

from repro.daemon import FALLBACK_REASONS, ProjectAnalysis
from repro.errors import ScopeError
from repro.export import result_to_dict
from repro.lang.ast import Program
from repro.serve.worker import _lint_section


def cold_envelope(pa):
    return result_to_dict(ProjectAnalysis.cold_cfa(pa.render_source()))


def replay_of(pa):
    fresh = ProjectAnalysis()
    for entry in pa.defs:
        fresh.define(entry.name, entry.source)
    return fresh


def strip_positions(section):
    doc = json.loads(json.dumps(section))
    findings = doc["findings"]
    for finding in findings:
        finding["line"] = None
        finding["column"] = None
    doc["findings"] = sorted(
        findings, key=lambda f: (f["rule"], f.get("nid") or 0, f["message"])
    )
    return doc


def check_exact(pa):
    """The full per-mutation contract."""
    warm = json.dumps(pa.envelope(), indent=2, sort_keys=True)
    cold = json.dumps(cold_envelope(pa), indent=2, sort_keys=True)
    assert warm == cold
    report = pa.sanitize()
    assert report["ok"], report["violations"]
    fresh = replay_of(pa)
    assert json.dumps(pa.lint(), sort_keys=True) == json.dumps(
        fresh.lint(), sort_keys=True
    )
    cold_cfa = ProjectAnalysis.cold_cfa(pa.render_source())
    cold_lint = _lint_section(cold_cfa.program, cold_cfa)
    assert json.dumps(
        strip_positions(pa.lint()), sort_keys=True
    ) == json.dumps(strip_positions(cold_lint), sort_keys=True)


@pytest.mark.usefixtures("backend_leg")
class TestDefineAppend:
    def test_single_definition(self):
        pa = ProjectAnalysis()
        report = pa.define("id", "fn x => x")
        assert report["delta"] is True
        assert report["version"] == 1
        check_exact(pa)

    def test_chained_definitions(self):
        pa = ProjectAnalysis()
        pa.define("id", "fn x => x")
        pa.define("use", "id (fn[l1] y => y)")
        check_exact(pa)
        assert pa.query_name("use") == {"name": "use", "labels": ["l1"]}

    def test_letrec_definition(self):
        pa = ProjectAnalysis()
        pa.define("loop", "fn[loop] x => loop x")
        assert pa.defs[0].recursive
        check_exact(pa)


@pytest.mark.usefixtures("backend_leg")
class TestRedefine:
    def test_redefine_leaf(self):
        pa = ProjectAnalysis()
        pa.define("a", "fn p => p")
        pa.define("b", "a a")
        report = pa.define("b", "a (a a)")
        assert report["delta"] is True
        assert report["retracted_edges"] > 0
        check_exact(pa)

    def test_redefine_middle_with_self_application(self):
        pa = ProjectAnalysis()
        pa.define("id", "fn x => x")
        pa.define("use", "id id")
        report = pa.define("id", "fn z => z z")
        assert report["delta"] is True
        assert report["retracted_close_edges"] > 0
        check_exact(pa)

    def test_letrec_to_let_flip(self):
        pa = ProjectAnalysis()
        pa.define("f", "fn[f0] x => f x")
        assert pa.defs[0].recursive
        report = pa.define("f", "fn[f1] x => x")
        assert not pa.defs[0].recursive
        assert report["delta"] is True
        check_exact(pa)

    def test_same_shape_redefine_splices_without_reindex(self):
        # Equal node counts take the in-place splice fast path; the
        # result must still be cold-exact on every surface.
        pa = ProjectAnalysis()
        pa.define("a", "fn[a0] p => p")
        pa.define("b", "a (fn[b0] q => q)")
        program_before = pa.program
        report = pa.define("b", "a (fn[b1] r => r)")
        assert report["delta"] is True
        # The fast path splices into the live Program; the slow path
        # would have replaced the object wholesale.
        assert pa.program is program_before
        check_exact(pa)
        assert pa.query_name("b")["labels"] == ["b1"]

    def test_same_shape_label_collision_uses_slow_path(self):
        # Duplicating another definition's label is a genuine error;
        # the splice guard must route it to the re-indexing path,
        # which rejects it atomically.
        pa = ProjectAnalysis()
        pa.define("a", "fn[dup] p => p")
        pa.define("b", "fn[b0] q => q")
        with pytest.raises(ScopeError, match="dup"):
            pa.define("b", "fn[dup] q => q")
        check_exact(pa)

    def test_version_bumps_on_every_mutation(self):
        pa = ProjectAnalysis()
        pa.define("a", "fn x => x")
        pa.define("a", "fn y => y")
        pa.define("b", "a")
        pa.undefine("b")
        assert pa.version == 4


@pytest.mark.usefixtures("backend_leg")
class TestUndefine:
    def test_undefine_retracts_everything(self):
        pa = ProjectAnalysis()
        pa.define("id", "fn x => x")
        pa.define("use", "id id")
        report = pa.undefine("use")
        assert report["delta"] is True
        assert report["retracted_edges"] > 0
        assert [d.name for d in pa.defs] == ["id"]
        check_exact(pa)

    def test_undefine_referenced_is_rejected_pre_mutation(self):
        pa = ProjectAnalysis()
        pa.define("a", "fn x => x")
        pa.define("b", "a a")
        version = pa.version
        with pytest.raises(ScopeError, match="reference"):
            pa.undefine("a")
        assert pa.version == version
        check_exact(pa)

    def test_undefine_unknown_is_rejected(self):
        pa = ProjectAnalysis()
        with pytest.raises(ScopeError, match="unknown"):
            pa.undefine("ghost")

    def test_define_after_undefine_is_fresh(self):
        pa = ProjectAnalysis()
        pa.define("f", "fn[f0] x => x")
        pa.undefine("f")
        pa.define("f", "fn[f1] y => y")
        check_exact(pa)
        assert pa.query_name("f")["labels"] == ["f1"]


class TestFallbacks:
    @pytest.mark.usefixtures("backend_leg")
    def test_rename_shift_falls_back_exactly(self):
        pa = ProjectAnalysis()
        pa.define("a", "fn t => t")
        pa.define("b", "fn t => a t")
        # Redefining `a` to bind `t` twice shifts the fresh name the
        # later definition's `t` renames to — not delta-safe.
        report = pa.define("a", "fn t => fn t => t")
        assert report["delta"] is False
        assert report["delta_fallback_reason"] == "rename-shift"
        assert pa.fallbacks["rename-shift"] == 1
        check_exact(pa)

    def test_replay_indexes_the_chain_once(self, monkeypatch):
        # A forced replay renames every definition, then indexes and
        # closes the chain once — not once per definition.
        pa = ProjectAnalysis()
        pa.define("a", "fn t => t")
        for i in range(12):
            pa.define(f"b{i}", "fn t => a t")
        calls = []
        index = Program._index

        def counting_index(program):
            calls.append(program)
            return index(program)

        monkeypatch.setattr(Program, "_index", counting_index)
        report = pa.define("a", "fn t => fn t => t")
        monkeypatch.undo()
        assert report["mode"] == "replay"
        assert len(calls) == 1
        check_exact(pa)

    def test_rehydrate_equals_defining_in_order(self):
        history = [
            ("id", "fn x => x"),
            ("loop", "fn[loop] n => loop n"),
            ("use", "id (fn[l1] y => y)"),
        ]
        defined = ProjectAnalysis()
        for name, source in history:
            defined.define(name, source)
        rehydrated = ProjectAnalysis()
        rehydrated.rehydrate(history)
        assert rehydrated.render_source() == defined.render_source()
        assert json.dumps(rehydrated.envelope(), sort_keys=True) == (
            json.dumps(defined.envelope(), sort_keys=True)
        )
        assert json.dumps(rehydrated.lint(), sort_keys=True) == (
            json.dumps(defined.lint(), sort_keys=True)
        )
        check_exact(rehydrated)

    def test_node_budget_fallback_reason_is_known(self):
        assert set(FALLBACK_REASONS) == {
            "rename-shift",
            "node-budget",
            "internal-error",
        }

    @pytest.mark.usefixtures("backend_leg")
    def test_fallback_counters_start_zeroed(self):
        pa = ProjectAnalysis()
        assert pa.fallbacks == {reason: 0 for reason in FALLBACK_REASONS}


@pytest.mark.usefixtures("backend_leg")
class TestRenderedSource:
    def test_rendering_parses_back_to_the_same_program(self):
        pa = ProjectAnalysis()
        pa.define("id", "fn x => x")
        pa.define("use", "id (fn[l1] y => y)")
        source = pa.render_source()
        assert "let id =" in source
        assert source.endswith("()\n")
        check_exact(pa)

    def test_recursive_definitions_render_as_letrec(self):
        pa = ProjectAnalysis()
        pa.define("loop", "fn[loop] x => loop x")
        assert "letrec loop =" in pa.render_source()


@pytest.mark.usefixtures("backend_leg")
class TestQueries:
    def test_query_label(self):
        pa = ProjectAnalysis()
        pa.define("id", "fn[idl] x => x")
        pa.define("use", "id id")
        result = pa.query_label("idl")
        assert result["label"] == "idl"
        assert result["nids"]

    def test_query_unknown_name_raises(self):
        pa = ProjectAnalysis()
        with pytest.raises(ScopeError):
            pa.query_name("ghost")

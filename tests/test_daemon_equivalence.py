"""Property-based equivalence: warm daemon state vs. cold analysis.

Hypothesis drives random define/redefine/undefine sequences against a
:class:`~repro.daemon.delta.ProjectAnalysis` and checks, after every
mutation, that the warm ``repro.result/1`` envelope is byte-identical
to a cold analysis of the rendered source. Both sides run under the
same small node budget, so self-application towers (``{ref} {ref}``
over ``fn x => x x``) trip it in milliseconds instead of growing to
the daemon's million-node default; a definition that trips the warm
budget must leave the warm state exact and trip the cold run of the
attempted program too. Fallbacks count as passes only because the
fallback path *is* the cold path (replay); the test asserts any
fallback carries a known reason. Lint output — finding positions
included, now that the warm chain restamps cold-parse line numbers
after every mutation — is compared byte-identical against the true
cold run at the end of every sequence.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.daemon import FALLBACK_REASONS, ProjectAnalysis
from repro.daemon.delta import free_base_names
from repro.errors import AnalysisBudgetExceeded, ScopeError
from repro.export import result_to_dict
from repro.lang.parser import parse, parse_expr
from repro.serve.worker import _lint_section

#: Node budget of both the warm project and every cold reference run.
NODE_BUDGET = 5_000

# Binder-free and single-binder bodies; {ref} is replaced with an
# existing name (or dropped when there is none yet).
TEMPLATES = (
    "fn x => x",
    "fn x => x x",
    "fn[t{i}] y => y",
    "fn f => fn g => fn x => f (g x)",
    "{ref}",
    "{ref} {ref}",
    "fn z => {ref} z",
    "{ref} (fn[a{i}] w => w)",
    "fn[r{i}] x => {ref} ({ref} x)",
)

ops = st.lists(
    st.tuples(
        st.sampled_from(["define", "redefine", "undefine"]),
        st.integers(min_value=0, max_value=len(TEMPLATES) - 1),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=8,
)


def build_source(template, names, pick, counter):
    if "{ref}" in template and not names:
        template = "fn x => x"
    source = template.replace("{i}", str(counter))
    while "{ref}" in source:
        source = source.replace(
            "{ref}", names[pick % len(names)], 1
        )
        pick += 1
    return source


def cold_cfa(source):
    return ProjectAnalysis.cold_cfa(source, node_budget=NODE_BUDGET)


def attempted_source(pa, name, source):
    """The program a cold run parses had ``pa.define(name, source)``
    succeeded: a redefinition keeps its chain position, a new name
    appends (the chain :meth:`ProjectAnalysis.render_source` prints)."""
    pairs = [(entry.name, entry.source) for entry in pa.defs]
    names = [def_name for def_name, _ in pairs]
    if name in names:
        pairs[names.index(name)] = (name, source)
    else:
        pairs.append((name, source))
    lines = []
    for def_name, def_source in pairs:
        recursive = def_name in free_base_names(parse_expr(def_source))
        keyword = "letrec" if recursive else "let"
        lines += [f"{keyword} {def_name} =", "(", def_source, ")", "in"]
    lines.append("()")
    return "\n".join(lines) + "\n"


def define_or_trip(pa, name, source):
    """``pa.define``; True if it applied, False if it tripped the
    node budget — which the cold run of the attempted program must
    trip as well (warm exactness is checked by the caller)."""
    try:
        pa.define(name, source)
    except AnalysisBudgetExceeded:
        with pytest.raises(AnalysisBudgetExceeded):
            cold_cfa(attempted_source(pa, name, source))
        return False
    return True


def run_sequence(sequence):
    pa = ProjectAnalysis(node_budget=NODE_BUDGET)
    names = []
    for counter, (op, tmpl_index, pick) in enumerate(sequence):
        if op == "define" or not names:
            name = f"d{counter}"
            source = build_source(
                TEMPLATES[tmpl_index], names, pick, counter
            )
            if define_or_trip(pa, name, source):
                names.append(name)
        elif op == "redefine":
            name = names[pick % len(names)]
            # Self-reference through {ref} may make the definition
            # recursive: a lambda body is a supported letrec flip, a
            # non-lambda body is a letrec violation the engine must
            # reject pre-mutation (state stays exact — checked below).
            source = build_source(
                TEMPLATES[tmpl_index], names, pick, counter
            )
            try:
                define_or_trip(pa, name, source)
            except ScopeError:
                pass
        else:  # undefine
            name = names[pick % len(names)]
            try:
                pa.undefine(name)
            except ScopeError:
                pass  # still referenced — rejection is the contract
            else:
                names.remove(name)
        warm = json.dumps(pa.envelope(), sort_keys=True)
        cold = json.dumps(
            result_to_dict(cold_cfa(pa.render_source())), sort_keys=True
        )
        assert warm == cold, (op, name, pa.render_source())
        report = pa.sanitize()
        assert report["ok"], report["violations"]
    for reason, count in pa.fallbacks.items():
        assert reason in FALLBACK_REASONS
        assert count >= 0
    rendered = pa.render_source()
    cold_lint = _lint_section(parse(rendered), cold_cfa(rendered))
    assert json.dumps(pa.lint(), sort_keys=True) == json.dumps(
        cold_lint, sort_keys=True
    )


# Every LC' graph is a CSRDigraph now, so both legs run the same
# engine; the leg names stay so each test's recorded history remains
# comparable (as with tests.helpers.BACKEND_LEGS).
@settings(max_examples=40, deadline=None)
@given(sequence=ops)
def test_random_sequences_object_backend(sequence):
    run_sequence(sequence)


@settings(max_examples=25, deadline=None)
@given(sequence=ops)
def test_random_sequences_csr_backend(sequence):
    run_sequence(sequence)


@pytest.mark.usefixtures("backend_leg")
def test_worst_case_sequence():
    """A hand-picked sequence that exercises every delta path:
    append, letrec, redefine-with-cascade, fallback, undefine."""
    run_sequence(
        [
            ("define", 0, 0),
            ("define", 4, 0),
            ("redefine", 1, 0),
            ("define", 8, 1),
            ("redefine", 3, 1),
            ("undefine", 0, 2),
            ("define", 7, 0),
        ],
    )

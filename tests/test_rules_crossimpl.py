"""Property-based cross-implementation equivalence for the rule ports.

Hypothesis drives seeded random well-typed programs (the same
generator family the golden-envelope suite uses) through every
ported analysis twice — hand-written traversal vs. compiled rule
program — and requires byte-identical
results: the full serialised lint envelope for L001-L005/F001-F004,
the red set for effects, the per-site label sets for k-limited CFA,
and the classification tables for called-once.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.apps.called_once import called_once
from repro.apps.effects import effects_analysis
from repro.apps.klimited import k_limited_cfa
from repro.core.lc import build_subtransitive_graph
from repro.lint import run_lints
from repro.rules.programs import (
    rules_called_once,
    rules_effects_analysis,
    rules_k_limited_cfa,
)
from repro.workloads.generators import random_typed_program

seeds = st.integers(min_value=0, max_value=10_000)


def normalised(result):
    document = result.to_dict()
    document.pop("pass_seconds", None)
    document.pop("impl", None)
    return json.dumps(document, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(seed=seeds)
def test_lint_twins_agree_on_random_programs(seed):
    program = random_typed_program(seed, fuel=20)
    sub = build_subtransitive_graph(program)
    hand = run_lints(program, sub, impl="hand")
    rules = run_lints(program, sub, impl="rules")
    assert normalised(hand) == normalised(rules)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_effects_twins_agree_on_random_programs(seed):
    program = random_typed_program(seed, fuel=20)
    sub = build_subtransitive_graph(program)
    hand = effects_analysis(program, sub=sub)
    rules = rules_effects_analysis(program, sub=sub)
    assert hand.red_nids == rules.red_nids
    for site in program.applications:
        assert hand.is_effectful(site) == rules.is_effectful(site)


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    k=st.integers(min_value=1, max_value=3),
)
def test_klimited_twins_agree_on_random_programs(seed, k):
    program = random_typed_program(seed, fuel=18)
    sub = build_subtransitive_graph(program)
    hand = k_limited_cfa(program, k=k, sub=sub)
    rules = rules_k_limited_cfa(program, k=k, sub=sub)
    for site in program.applications:
        assert hand.may_call(site) == rules.may_call(site), site.nid
    for expr in program.nodes:
        assert hand.labels_of(expr) == rules.labels_of(expr), expr.nid


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_called_once_twins_agree_on_random_programs(seed):
    program = random_typed_program(seed, fuel=20)
    sub = build_subtransitive_graph(program)
    hand = called_once(program, sub=sub)
    rules = rules_called_once(program, sub=sub)
    assert hand.once_labels == rules.once_labels
    assert hand.never_called == rules.never_called
    assert hand.many_callers == rules.many_callers
    for label in hand.once_labels:
        assert hand.unique_site(label) is rules.unique_site(label)

"""Golden equivalence: rule-program ports == hand-written originals.

The declarative twins of every ported lint pass (L001-L005,
F001-F004) and the called-once app must agree with the retained
hand-written implementations on the whole example corpus — identical
findings (the full serialised envelope, wall-clock and impl
provenance normalised away) and identical classifications.
"""

import glob
import os

import pytest

from repro.apps.called_once import called_once
from repro.core.lc import build_subtransitive_graph
from repro.lang import parse
from repro.lint import run_lints
from repro.rules.programs import rules_called_once
from tests.helpers import BACKEND_LEGS

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples"
)
EXAMPLE_FILES = sorted(
    glob.glob(os.path.join(EXAMPLES_DIR, "*.lam"))
)
EXAMPLE_IDS = [os.path.basename(path) for path in EXAMPLE_FILES]


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


#: Every pass with a rule-program twin.
PORTED = (
    "L001", "L002", "L003", "L004", "L005",
    "F001", "F002", "F003", "F004",
)


def normalised(result):
    """The lint result's serialised document minus wall-clock noise
    and the per-rule impl provenance (the one key rules mode adds)."""
    document = result.to_dict()
    document.pop("pass_seconds", None)
    document.pop("impl", None)
    return document


@pytest.mark.parametrize("backend_leg", BACKEND_LEGS)
@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=EXAMPLE_IDS)
@pytest.mark.usefixtures("backend_leg")
class TestLintTwins:
    def test_envelopes_identical(self, path):
        program = load(path)
        sub = build_subtransitive_graph(program)
        hand = run_lints(program, sub, impl="hand")
        rules = run_lints(program, sub, impl="rules")
        assert normalised(hand) == normalised(rules)

    def test_called_once_identical(self, path):
        program = load(path)
        sub = build_subtransitive_graph(program)
        hand = called_once(program, sub=sub)
        rules = rules_called_once(program, sub=sub)
        assert hand.once_labels == rules.once_labels
        assert hand.never_called == rules.never_called
        assert hand.many_callers == rules.many_callers
        for label in hand.once_labels:
            assert hand.unique_site(label) is rules.unique_site(label)


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=EXAMPLE_IDS)
def test_explain_attaches_derivations_to_ported_findings(path):
    program = load(path)
    sub = build_subtransitive_graph(program)
    result = run_lints(program, sub, explain=True)
    ported = [f for f in result.findings if f.rule in PORTED]
    for finding in ported:
        # A verdict on a node the graph never built has no derivation
        # to attach (the rule twin reports it from the AST view).
        if finding.derivation is None:
            continue
        assert finding.derivation, finding.rule
        for step in finding.derivation:
            assert set(step) == {"rule", "fact", "premises"}
    # Exempt (T-series) findings never grow the key: the envelope
    # stays byte-stable for consumers that don't ask for provenance.
    for finding in result.findings:
        if finding.rule not in PORTED:
            assert "derivation" not in finding.to_dict()


def test_explain_implies_rules_impl():
    program = parse("let f = fn[f] x => x in f 1")
    sub = build_subtransitive_graph(program)
    result = run_lints(program, sub, impl="hand", explain=True)
    assert any(f.derivation for f in result.findings)
    # explain forces the rule twins; minus the provenance it asked
    # for, the envelope stays equivalent.
    explained = normalised(result)
    for finding in explained["findings"]:
        finding.pop("derivation", None)
    hand = run_lints(program, sub, impl="hand")
    assert explained == normalised(hand)


def test_unknown_impl_rejected():
    program = parse("let f = fn[f] x => x in f 1")
    sub = build_subtransitive_graph(program)
    with pytest.raises(ValueError):
        run_lints(program, sub, impl="sql")

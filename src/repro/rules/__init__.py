"""``repro.rules`` — the declarative rule layer.

A stratified Horn-rule DSL (:mod:`~repro.rules.dsl`) over the
subtransitive graph's base relations (:mod:`~repro.rules.schema`),
statically validated (:mod:`~repro.rules.check`: stratification,
range restriction, bounded-value discipline, and a linearity
classifier enforcing the paper's O(n + e) budget) and compiled onto
the fused flow scheduler (:mod:`~repro.rules.engine`), with a naive
reference evaluator (:mod:`~repro.rules.naive`) the property tests
hold the compiler to. See ``docs/RULES.md``.
"""

from repro._util import lazy_exports

_EXPORTS = {
    "Atom": "repro.rules.dsl",
    "CALLED_ONCE_PROGRAM": "repro.rules.programs",
    "CheckedRules": "repro.rules.check",
    "CompiledRuleSet": "repro.rules.engine",
    "DictFactSource": "repro.rules.schema",
    "FactSource": "repro.rules.schema",
    "GRAPH_SCHEMA": "repro.rules.schema",
    "GraphFactSource": "repro.rules.schema",
    "L002_PROGRAM": "repro.rules.programs",
    "L004_PROGRAM": "repro.rules.programs",
    "LinearityVerdict": "repro.rules.check",
    "Rel": "repro.rules.dsl",
    "RelationPlan": "repro.rules.check",
    "Rule": "repro.rules.dsl",
    "RuleCheckError": "repro.rules.check",
    "RuleCompileError": "repro.rules.engine",
    "RuleEvaluation": "repro.rules.engine",
    "RuleProgram": "repro.rules.dsl",
    "RuleSyntaxError": "repro.rules.dsl",
    "SHIPPED_PROGRAMS": "repro.rules.programs",
    "Var": "repro.rules.dsl",
    "called_once_rule_set": "repro.rules.programs",
    "check_programs": "repro.rules.check",
    "check_rules": "repro.rules.check",
    "compile_programs": "repro.rules.engine",
    "evaluate_naive": "repro.rules.naive",
    "fingerprint": "repro.rules.dsl",
    "lint_rule_set": "repro.rules.programs",
    "make_vars": "repro.rules.dsl",
    "merge_programs": "repro.rules.check",
    "naive_fixpoint": "repro.rules.naive",
    "rules_called_once": "repro.rules.programs",
    "shipped_fingerprint": "repro.rules.programs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

"""``repro.lint`` — CFA-powered diagnostics on the subtransitive graph.

The paper's thesis is that CFA consumers should run *directly on the
subtransitive graph* instead of materialising quadratic label sets.
This package is the end-user surface for that idea: a pluggable
diagnostics framework whose passes are all O(nodes + edges) graph
traversals or bounded-lattice propagations, never per-expression label
sets. The shipped rules:

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
``L001``  warning   dead lambda — no call site can ever invoke it
``L002``  error     stuck application — the operator's label set is
                    provably empty, the call can never fire
``L003``  info      called exactly once — inline candidate
``L004``  warning   escaping function — a lambda flows into a
                    primitive/external sink
``L005``  warning   unused binding — the let/letrec variable node is
                    never demanded by LC'
``F001``  warning   tainted sink — a primitive argument may carry a
                    value read from a mutable cell
``F002``  warning   escaping reference — a ``ref`` cell flows into a
                    primitive/external sink
``F003``  info      unneeded parameter — no use demands the
                    parameter's variable node
``F004``  warning   unreachable branch — the scrutinee's constructor
                    set excludes the branch's constructor
``T001``  warning   unbounded types — the ``P_k`` precondition of
                    Propositions 3/4 does not hold
``T002``  info      predicted demanded-node count exceeds the hybrid
                    LC' node budget
``T003``  warning   hybrid-fallback forecast, with the predicted
                    reason
========  ========  =====================================================

The F-series rules run on the fused :mod:`repro.flow` sweep (one
shared worklist per lint session); the T-series rules surface the
:mod:`repro.flow.audit` linearity auditor and never touch the graph.

:mod:`repro.lint.sanitize` is the companion invariant checker that
validates LC' output well-formedness (closure-edge justification,
budget accounting, and a Proposition 1 spot-check against DTC). It is
not re-exported here, where its name would be both the submodule and
its entry point; call ``repro.sanitize`` instead.
"""

from repro._util import lazy_exports

_EXPORTS = {
    "ALL_PASSES": "repro.lint.passes",
    "AUDIT_PASSES": "repro.lint.flowrules",
    "CORE_PASSES": "repro.lint.passes",
    "CalledOncePass": "repro.lint.passes",
    "DeadLambdaPass": "repro.lint.passes",
    "EscapingFunctionPass": "repro.lint.passes",
    "EscapingRefPass": "repro.lint.flowrules",
    "FLOW_PASSES": "repro.lint.flowrules",
    "FallbackForecastPass": "repro.lint.flowrules",
    "Finding": "repro.lint.findings",
    "LintContext": "repro.lint.passes",
    "LintPass": "repro.lint.passes",
    "LintResult": "repro.lint.findings",
    "NodeBudgetPass": "repro.lint.flowrules",
    "SCHEMA": "repro.lint.findings",
    "SEVERITIES": "repro.lint.findings",
    "StuckApplicationPass": "repro.lint.passes",
    "TaintedSinkPass": "repro.lint.flowrules",
    "UnboundedTypePass": "repro.lint.flowrules",
    "UnneededParamPass": "repro.lint.flowrules",
    "UnreachableBranchPass": "repro.lint.flowrules",
    "UnusedBindingPass": "repro.lint.passes",
    "default_passes": "repro.lint.passes",
    "run_lints": "repro.lint.engine",
    "severity_at_least": "repro.lint.findings",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

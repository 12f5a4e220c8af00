"""The lint passes and their shared per-program context.

Every pass consumes the subtransitive graph directly and is linear in
the graph: a constant number of multi-source BFS traversals
(:func:`repro.graph.reachability.reachable_from`) or one bounded-set
propagation (:mod:`repro.apps.propagation`). No pass ever materialises
a label set — a regression test holds the ``queries.labels_of`` /
``queries.count`` counters at zero across a full lint run.

The traversals are shared through :class:`LintContext` caches so a run
of all the passes performs:

* one ``called_once`` bounded propagation (L001 + L003),
* one *fused* :mod:`repro.flow` sweep — a single shared worklist
  servicing the backward lambda-reachability probe (L002), the forward
  escape probe (L004 + F002), the taint (F001), neededness (F003) and
  constructor-set (F004) analyses,
* one in-degree probe per let/letrec binder (L005),
* one type-measure audit for the T-series rules (no graph work).

``scope`` (a set of nids, or ``None`` for everything) restricts a pass
to the constructs an incremental session actually needs re-examined;
passes whose findings can *appear* on untouched old constructs declare
``incremental = False`` and ignore the scope (see
:meth:`repro.session.AnalysisSession.lint`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lang.ast import App, Lam, Let, Letrec, Prim

from repro.lint.findings import Finding


def _span(expr):
    # Synthetic nodes (session-built, builder-made) carry 0:0 —
    # report those as spanless rather than pointing at line 0.
    if expr.line or expr.column:
        return {"line": expr.line, "column": expr.column}
    return {"line": None, "column": None}


class LintContext:
    """Shared, lazily-computed artefacts for one lint run.

    ``lint.visited_nodes`` on the registry accounts every node touched
    by the context's traversals — the number the O(edges) regression
    tests bound by the graph size.
    """

    def __init__(self, program, sub, registry=None, explain=False):
        self.program = program
        self.sub = sub
        self.graph = sub.graph
        self.factory = sub.factory
        self.registry = (
            registry if registry is not None else sub.stats.registry
        )
        #: When True, the rule-based passes run their programs with
        #: provenance recording and attach derivations to findings.
        self.explain = explain
        self._c_visited = self.registry.counter("lint.visited_nodes")
        self._called_once = None
        self._flow = None
        self._sweep_results = None
        self._rules_evaluation = None
        self._escaping: Optional[Dict[str, Lam]] = None
        self._audit = None

    # -- node lookups ------------------------------------------------------

    def peek(self, expr):
        """The already-built graph node of ``expr`` (never creates)."""
        return self.factory.peek_expr(expr)

    def lambda_value_nodes(self) -> List:
        """Graph nodes carrying at least one abstraction value (their
        own expression or a congruence-absorbed one)."""
        return self.flow.lambda_value_nodes

    # -- shared traversals -------------------------------------------------

    @property
    def flow(self):
        """The :class:`repro.flow.framework.FlowContext` every flow
        client in this lint run shares (same registry, same caches)."""
        if self._flow is None:
            from repro.flow.framework import FlowContext

            self._flow = FlowContext(
                self.program, self.sub, registry=self.registry
            )
        return self._flow

    def _sweep(self) -> Dict[str, object]:
        """The fused flow sweep: one shared worklist runs the L002
        backward reachability probe, the L004/F002 forward escape
        probe, and the F001/F003/F004 analyses together.

        ``lint.visited_nodes`` accounts the two reachability mark sets
        (the quantity the O(edges) regression tests bound); the flow
        engine's own ``flow.steps.fused`` counter accounts the full
        propagation work.
        """
        if self._sweep_results is None:
            from repro.flow.analyses import (
                ConstructorAnalysis,
                EscapeAnalysis,
                NeednessAnalysis,
                ReachabilityAnalysis,
                TaintAnalysis,
            )
            from repro.flow.framework import run_fused

            flow = self.flow
            analyses = [
                ReachabilityAnalysis(
                    flow.lambda_value_nodes,
                    self.graph.predecessors,
                    name="reach-lambda",
                ),
                EscapeAnalysis(),
                TaintAnalysis(),
                NeednessAnalysis(),
                ConstructorAnalysis(flow),
            ]
            results = run_fused(
                analyses, flow, fuel=flow.default_fuel()
            )
            self._sweep_results = dict(
                zip(
                    (
                        "reach-lambda",
                        "escape",
                        "taint",
                        "needness",
                        "constructors",
                    ),
                    results,
                )
            )
            self._c_visited.inc(len(results[0]))
            self._c_visited.inc(len(results[1]))
        return self._sweep_results

    @property
    def rules_evaluation(self):
        """The compiled lint rule programs (every L/F twin plus
        called-once), evaluated once per lint run on the shared flow
        context: all five recursive relations fuse into one sweep,
        mirroring :meth:`_sweep`. Only the rule-based pass
        implementations (:mod:`repro.lint.ruleimpl`) demand this."""
        if self._rules_evaluation is None:
            from repro.rules.programs import (
                constructor_k,
                lint_rule_set,
            )

            rule_set = lint_rule_set(constructor_k(self.program))
            self._rules_evaluation = rule_set.run(
                ctx=self.flow, explain=self.explain
            )
            self._c_visited.inc(
                len(self._rules_evaluation.extents.data["reach_lam"])
            )
            self._c_visited.inc(
                len(self._rules_evaluation.extents.data["escape"])
            )
        return self._rules_evaluation

    @property
    def called_once(self):
        """One bounded-set propagation shared by L001 and L003."""
        if self._called_once is None:
            from repro.apps.called_once import called_once

            self._called_once = called_once(self.program, sub=self.sub)
        return self._called_once

    @property
    def nodes_reaching_lambda(self) -> Set:
        """Nodes from which some abstraction node is reachable — the
        backward probe of the fused sweep, shared by every L002
        probe."""
        return self._sweep()["reach-lambda"]

    @property
    def escape_marks(self) -> Set:
        """Nodes reachable from a primitive-argument sink — the
        forward probe of the fused sweep (L004 + F002)."""
        return self._sweep()["escape"]

    @property
    def taint_marks(self) -> Set:
        """Nodes that may evaluate to a value read from a mutable
        cell (F001)."""
        return self._sweep()["taint"]

    @property
    def needness_marks(self) -> Set:
        """Variable nodes some use actually demands (F003)."""
        return self._sweep()["needness"]

    @property
    def constructor_values(self) -> Dict:
        """k-bounded constructor-name annotations (F004)."""
        return self._sweep()["constructors"]

    @property
    def escaping_lambdas(self) -> Dict[str, Lam]:
        """Abstractions reachable from a primitive-argument sink,
        read off the fused sweep's escape marks (L004)."""
        if self._escaping is None:
            escaping: Dict[str, Lam] = {}
            for node in self.escape_marks:
                if node.kind != "expr":
                    continue
                if isinstance(node.expr, Lam):
                    escaping[node.expr.label] = node.expr
                for expr in node.absorbed:
                    if isinstance(expr, Lam):
                        escaping[expr.label] = expr
            self._escaping = escaping
        return self._escaping

    @property
    def linearity_audit(self):
        """The :class:`repro.flow.audit.LinearityAudit` shared by the
        T-series rules. Reuses the analysis's own type inference when
        it ran one, so a lint session infers types at most once."""
        if self._audit is None:
            from repro.flow.audit import audit_linearity

            self._audit = audit_linearity(
                self.program, inference=self.factory.inference
            )
        return self._audit


def primitive_sink_args(program) -> Iterable:
    """The expressions handed to primitives — the "external sinks" a
    function can escape through (Section 8's effectful applications
    are a subset of these)."""
    for node in program.nodes:
        if isinstance(node, Prim):
            for arg in node.args:
                yield arg


class LintPass:
    """Base class: one rule code, one severity, one linear traversal."""

    code: str = ""
    name: str = ""
    severity: str = "warning"
    #: False when a finding may newly appear on a construct outside
    #: the redefinition scope (the session then always runs it fully).
    incremental: bool = True
    #: True for passes whose verdicts never touch the graph (the
    #: T-series type audits): ``impl="rules"`` runs them as-is rather
    #: than failing over a missing rule-program twin.
    rules_exempt: bool = False

    def run(
        self, ctx: LintContext, scope: Optional[Set[int]] = None
    ) -> List[Finding]:
        raise NotImplementedError

    def _in_scope(self, expr, scope: Optional[Set[int]]) -> bool:
        return scope is None or expr.nid in scope

    def finding(self, expr, message: str, label=None) -> Finding:
        return Finding(
            self.code,
            self.severity,
            expr.nid,
            message,
            label=label,
            **_span(expr),
        )


class DeadLambdaPass(LintPass):
    """L001 — an abstraction no call site can ever invoke.

    Bounded-set propagation (k=1) annotates every abstraction with its
    caller multiplicity; bottom means dead. Dead code that is *values*
    (never-called closures) is invisible to reachability-style dead
    code elimination on the CFG — this is the CFA-level counterpart.
    """

    code = "L001"
    name = "dead-lambda"
    severity = "warning"

    def run(self, ctx, scope=None):
        findings = []
        never = ctx.called_once.never_called
        for lam in ctx.program.abstractions:
            if not self._in_scope(lam, scope):
                continue
            if lam.label in never:
                findings.append(
                    self.finding(
                        lam,
                        f"function '{lam.label}' is never called: "
                        "no call site can invoke it",
                        label=lam.label,
                    )
                )
        return findings


class StuckApplicationPass(LintPass):
    """L002 — an application whose operator label set is provably
    empty: ``L(e1) = {}`` so the call can never fire (the expression
    is stuck or dead at runtime).

    One backward BFS from all lambda-bearing nodes marks every node
    that can reach an abstraction; an operator node left unmarked has
    an empty label set, with no per-site label-set materialisation.
    """

    code = "L002"
    name = "stuck-application"
    severity = "error"

    def run(self, ctx, scope=None):
        findings = []
        alive = ctx.nodes_reaching_lambda
        for site in ctx.program.applications:
            if not self._in_scope(site, scope):
                continue
            op_node = ctx.peek(site.fn)
            if op_node is None:
                continue  # depth-capped away; no verdict
            if op_node not in alive:
                findings.append(
                    self.finding(
                        site,
                        "this application can never fire: the "
                        "operator's label set is provably empty",
                    )
                )
        return findings


class CalledOncePass(LintPass):
    """L003 — an abstraction called from exactly one site: the classic
    inline-without-code-growth candidate (paper abstract, item 3)."""

    code = "L003"
    name = "called-once-inline-candidate"
    severity = "info"

    def run(self, ctx, scope=None):
        findings = []
        result = ctx.called_once
        for label in sorted(result.once_labels):
            lam = ctx.program.abstraction(label)
            if not self._in_scope(lam, scope):
                continue
            site = result.unique_site(label)
            findings.append(
                self.finding(
                    lam,
                    f"function '{label}' is called from exactly one "
                    f"site (nid {site.nid}): inlining it cannot grow "
                    "code",
                    label=label,
                )
            )
        return findings


class EscapingFunctionPass(LintPass):
    """L004 — a lambda flows into a primitive/external sink, escaping
    the analysed call structure (so e.g. the L001/L003 caller counts
    cannot be trusted for specialisation past this point).

    One forward BFS from every primitive-argument node; abstractions
    reached have a flow path into the sink. Not incremental: a new
    definition can make an *old* lambda escape, so sessions always run
    this pass over the whole program.
    """

    code = "L004"
    name = "escaping-function"
    severity = "warning"
    incremental = False

    def run(self, ctx, scope=None):
        findings = []
        for label in sorted(ctx.escaping_lambdas):
            lam = ctx.escaping_lambdas[label]
            if not self._in_scope(lam, scope):
                continue
            findings.append(
                self.finding(
                    lam,
                    f"function '{label}' flows into a primitive sink "
                    "and escapes the analysed call structure",
                    label=label,
                )
            )
        return findings


class UnusedBindingPass(LintPass):
    """L005 — a let/letrec binding whose variable node is never
    demanded: LC' added no occurrence edge into it, so the bound value
    flows nowhere.

    In-edges to a variable node come only from use occurrences (build
    rules route binding edges *out of* the node and closure conclusions
    only target operator nodes), so ``in_degree == 0`` is exactly
    "never used". Conventionally-ignored names (leading underscore)
    are skipped; a letrec used only by its own recursive occurrence
    still counts as used (L001 flags the enclosed lambda instead).
    Congruence class nodes may merge variables and suppress a finding —
    conservative, never a false positive.
    """

    code = "L005"
    name = "unused-binding"
    severity = "warning"

    def run(self, ctx, scope=None):
        findings = []
        for node in ctx.program.nodes:
            if not isinstance(node, (Let, Letrec)):
                continue
            if not self._in_scope(node, scope):
                continue
            if node.name.startswith("_"):
                continue
            var_node = ctx.factory.peek_var(node.name)
            if var_node is None or ctx.graph.in_degree(var_node) == 0:
                findings.append(
                    self.finding(
                        node,
                        f"binding '{node.name}' is never used: its "
                        "variable node is never demanded by LC'",
                    )
                )
        return findings


#: The graph-traversal passes defined in this module, in rule-code
#: order. The full registry (:data:`ALL_PASSES`) also includes the
#: F/T-series passes from :mod:`repro.lint.flowrules`.
CORE_PASSES = (
    DeadLambdaPass,
    StuckApplicationPass,
    CalledOncePass,
    EscapingFunctionPass,
    UnusedBindingPass,
)


def __getattr__(name):
    # ALL_PASSES is assembled lazily: flowrules subclasses LintPass
    # from this module, so a module-level import either way would be
    # circular. First access resolves and caches the full tuple.
    if name == "ALL_PASSES":
        from repro.lint.flowrules import AUDIT_PASSES, FLOW_PASSES

        value = CORE_PASSES + FLOW_PASSES + AUDIT_PASSES
        globals()["ALL_PASSES"] = value
        return value
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


def default_passes() -> Sequence[LintPass]:
    """Fresh instances of every shipped pass."""
    from repro.lint.flowrules import AUDIT_PASSES, FLOW_PASSES

    return tuple(
        cls() for cls in CORE_PASSES + FLOW_PASSES + AUDIT_PASSES
    )

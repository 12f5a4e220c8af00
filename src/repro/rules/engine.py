"""The compiled rule engine: stratified rules onto fused flow sweeps.

:class:`CompiledRuleSet` takes checked rule programs and executes them
level by level on the plan :func:`~repro.rules.check.check_programs`
built:

* **non-recursive relations** are complete after firing their rules
  once — by construction a level's relations depend only on strictly
  lower levels, so each firing pass sees finished inputs;
* **recursive relations** compile onto the existing flow scheduler:
  their seed rules fire into the extents, and their step rules — which
  the compiler requires in propagation shape, ``R(N) :- R(M),
  edge(M, N)`` (or ``edge(N, M)``; with a transported value column for
  k-bounded heads) — become a :class:`~repro.flow.analyses.
  ReachabilityAnalysis` or :class:`~repro.flow.analyses.
  BoundedSetAnalysis`. Every recursive relation of one level joins a
  single :func:`~repro.flow.framework.run_fused` call, so rule
  programs inherit the engine's fuel accounting, metrics, span
  profiling, CSR flat sweeps, and worklist fusion for free.

The propagation-shape restriction is not a loss of generality the
checker would hide: the linearity classifier only admits recursive
rules whose recursion is driven by one premise joined through a
binary base relation, and on the subtransitive schema that is an
``edge`` step (or ``eff_edge`` for the effects colouring — any
node-to-node base relation may carry a sweep). Anything else fails
compilation with an actionable error.

With ``explain=True`` the run records provenance: join-derived facts
keep the rule and ground premises that first produced them, and
propagated facts record their first deriving edge via a transfer
override (the framework guarantees identical step/update accounting
either way). :meth:`RuleEvaluation.derivation` replays a fact's chain
down to base facts — the evidence ``repro lint --explain`` prints.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.flow.analyses import BoundedSetAnalysis, ReachabilityAnalysis
from repro.flow.framework import FlowContext, run_fused
from repro.obs.events import current_profiler
from repro.rules.check import CheckedRules, RelationPlan, check_programs
from repro.rules.dsl import NODE, Rel, Rule, RuleProgram, Var, fingerprint
from repro.rules.eval import Extents, World, fire_rule
from repro.rules.lattice import MANY
from repro.rules.schema import FactSource, GraphFactSource, GRAPH_SCHEMA

_AUTO = object()


class RuleCompileError(ReproError):
    """A checked rule set the compiled engine still cannot execute —
    always a recursive rule outside the propagation shape."""


def render_value(value) -> str:
    """Render one column value (or annotation) for provenance text."""
    if value is MANY:
        return "MANY"
    if isinstance(value, frozenset):
        return "{" + ", ".join(sorted(render_value(v) for v in value)) + "}"
    describe = getattr(value, "describe", None)
    if callable(describe):
        return describe()
    if isinstance(value, str):
        return f'"{value}"'
    return repr(value)


def render_fact(name: str, fact: Sequence) -> str:
    return f"{name}({', '.join(render_value(v) for v in fact)})"


class _StepSpec:
    """One compiled step rule: the binary base relation it propagates
    along (``via``) and which way that premise points."""

    __slots__ = ("rule", "direction", "via")

    def __init__(self, rule: Rule, direction: str, via: str):
        self.rule = rule
        self.direction = direction
        self.via = via


def _shape_error(rule: Rule, why: str) -> RuleCompileError:
    return RuleCompileError(
        f"rule {rule.name}: {why}; recursive rules must have the "
        "propagation shape R(N) :- R(M), edge(M, N) (or edge(N, M); "
        "any binary node-to-node base relation works in place of "
        "'edge', and k-bounded heads carry their value variable "
        "through both R atoms)"
    )


def _step_spec(plan: RelationPlan, rule: Rule) -> _StepSpec:
    rel = plan.rel
    if rel.key_arity != 1 or rel.columns[0] != NODE:
        raise RuleCompileError(
            f"rule {rule.name}: recursive relation '{rel.name}' must "
            "be keyed by a single node column to propagate along the "
            "graph; re-key it or stage the extra columns through a "
            "non-recursive relation"
        )
    body = rule.body
    if len(body) != 2 or any(atom.negated for atom in body):
        raise _shape_error(
            rule, "the body must be exactly two positive atoms"
        )
    rec = next((a for a in body if a.rel.name == rel.name), None)
    via = next(
        (
            a
            for a in body
            if a.rel.kind == "edb"
            and a.rel.columns == (NODE, NODE)
            and a.rel.name != rel.name
        ),
        None,
    )
    if rec is None or via is None:
        raise _shape_error(
            rule,
            "the body must pair one premise over the head's own "
            "relation with one binary node-to-node base premise to "
            "propagate along",
        )
    head_key = rule.head.terms[0]
    rec_key = rec.terms[0]
    if (
        not isinstance(head_key, Var)
        or not isinstance(rec_key, Var)
        or head_key == rec_key
    ):
        raise _shape_error(
            rule, "head and recursive premise need distinct key variables"
        )
    if rel.bounded and rule.head.terms[-1] != rec.terms[-1]:
        raise _shape_error(
            rule,
            "a k-bounded step must transport one value variable "
            "through both atoms",
        )
    src, dst = via.terms
    if (src, dst) == (rec_key, head_key):
        return _StepSpec(rule, "successors", via.rel.name)
    if (src, dst) == (head_key, rec_key):
        return _StepSpec(rule, "predecessors", via.rel.name)
    raise _shape_error(
        rule,
        "the base premise must connect the recursive premise's key "
        "to the head's key",
    )


class RuleEvaluation:
    """One run's results: the extents plus (with ``explain``) the
    provenance needed to replay any fact's derivation."""

    def __init__(
        self,
        checked: CheckedRules,
        extents: Extents,
        source: FactSource,
        provenance: Optional[Dict] = None,
        parents: Optional[Dict] = None,
        specs: Optional[Dict[str, List[_StepSpec]]] = None,
    ):
        self.checked = checked
        self.extents = extents
        self.source = source
        self._provenance = provenance if provenance is not None else {}
        self._parents = parents if parents is not None else {}
        self._specs = specs if specs is not None else {}

    @property
    def explained(self) -> bool:
        return bool(self._provenance) or bool(self._parents)

    def relation(self, name: str) -> Rel:
        return self.extents.relations[name]

    def holds(self, name: str, *key) -> bool:
        return self.extents.holds(self.relation(name), tuple(key))

    def annotation(self, name: str, *key):
        return self.extents.annotation(self.relation(name), tuple(key))

    def rows(self, name: str) -> List[Tuple]:
        """The relation's rows, deterministically ordered: key tuples
        for a plain relation, key + annotation for a bounded one."""
        rel = self.relation(name)
        store = self.extents.data[name]
        if rel.bounded:
            rows = [key + (ann,) for key, ann in store.items()]
        else:
            rows = list(store)
        return sorted(rows, key=lambda row: render_fact(name, row))

    def fact_text(self, name: str, key: Sequence) -> str:
        rel = self.relation(name)
        key = tuple(key)
        if rel.bounded:
            return render_fact(name, key + (self.annotation(name, *key),))
        return render_fact(name, key)

    def _premise_text(self, premise) -> str:
        rel_name, fact, negated = premise
        bang = "!" if negated else ""
        return bang + render_fact(rel_name, fact)

    def _chain_next(self, premises):
        """The first derived premise that has recorded provenance —
        where the derivation chain continues."""
        for rel_name, fact, negated in premises:
            if negated:
                continue
            rel = self.checked.relations.get(rel_name)
            if rel is None or rel.kind != "idb":
                continue
            key = fact[: rel.key_arity] if rel.bounded else fact
            nxt = (rel_name, tuple(key))
            if nxt in self._provenance or nxt in self._parents:
                return nxt
        return None

    def _propagation_rule(self, name: str, src, dst):
        """Which step rule carried ``src -> dst``: the spec whose base
        premise direction matches an existing base fact."""
        specs = self._specs.get(name, ())
        for spec in specs:
            a, b = (src, dst) if spec.direction == "successors" else (dst, src)
            if self.source.contains(spec.via, (a, b)):
                return spec.rule, (spec.via, (a, b), False)
        if specs:
            spec = specs[0]
            a, b = (src, dst) if spec.direction == "successors" else (dst, src)
            return spec.rule, (spec.via, (a, b), False)
        return None, None

    def derivation(self, name: str, key: Sequence, limit: int = 24):
        """The fact's derivation chain, ground facts last: a list of
        ``{"rule", "fact", "premises"}`` dicts (JSON-safe strings).
        Empty when the run was not explained or the fact was never
        derived."""
        steps: List[Dict[str, object]] = []
        current: Optional[Tuple] = (name, tuple(key))
        seen = set()
        while current is not None and current not in seen:
            if len(steps) >= limit:
                steps.append({"rule": "...", "fact": "...", "premises": []})
                break
            seen.add(current)
            record = self._provenance.get(current)
            if record is not None:
                rule_name, premises = record
                steps.append(
                    {
                        "rule": rule_name,
                        "fact": self.fact_text(*current),
                        "premises": [
                            self._premise_text(p) for p in premises
                        ],
                    }
                )
                current = self._chain_next(premises)
                continue
            src = self._parents.get(current)
            if src is None:
                break
            rel_name, (dst,) = current
            rule, edge_premise = self._propagation_rule(rel_name, src, dst)
            premises = [self._premise_text((rel_name, (src,), False))]
            if edge_premise is not None:
                premises.append(self._premise_text(edge_premise))
            steps.append(
                {
                    "rule": rule.name if rule is not None else "?",
                    "fact": self.fact_text(rel_name, (dst,)),
                    "premises": premises,
                }
            )
            current = (rel_name, (src,))
        return steps


class _RuleReachAnalysis(ReachabilityAnalysis):
    """A recursive plain relation's sweep."""


class _RecordingReachAnalysis(ReachabilityAnalysis):
    """The explain variant: records the first deriving edge per mark.

    The transfer override is a *class-level* method on a separate
    class on purpose: the framework's identity-transfer and CSR flat
    fast paths key on ``type(analysis).transfer``, so the non-explain
    classes above keep those paths and only explained runs pay the
    per-edge call (with identical step/update accounting)."""

    def __init__(self, sources, follow, name, record):
        super().__init__(sources, follow, name)
        self._record = record

    def transfer(self, ctx, src, dst, value):
        self._record(src, dst)
        return value


class _RuleBoundedAnalysis(BoundedSetAnalysis):
    """A recursive k-bounded relation's sweep: seeds are the already
    clamped annotations the seed rules derived (MANY included)."""

    def seeds(self, ctx):
        return dict(self._seed_map)


class _RecordingBoundedAnalysis(_RuleBoundedAnalysis):
    def __init__(self, seed_map, k, follow, name, record):
        super().__init__(seed_map, k, follow, name)
        self._record = record

    def transfer(self, ctx, src, dst, value):
        self._record(src, dst)
        return value


class CompiledRuleSet:
    """Rule programs checked, shape-validated, and ready to run.

    Construction performs every static stage (the checker plus the
    propagation-shape validation), so a ``CompiledRuleSet`` that
    exists can always execute; :meth:`run` is the dynamic stage.
    """

    def __init__(
        self,
        programs: Sequence[RuleProgram],
        schema: Optional[Dict[str, Rel]] = None,
        require_linear: bool = True,
    ):
        self.programs = tuple(programs)
        if schema is None:
            schema = GRAPH_SCHEMA
        self.checked = check_programs(
            self.programs, schema=schema, require_linear=require_linear
        )
        self.fingerprint = fingerprint(self.programs)
        self.specs: Dict[str, List[_StepSpec]] = {}
        for level in self.checked.levels:
            for plan in level:
                if not plan.step_rules:
                    continue
                specs = [
                    _step_spec(plan, rule) for rule in plan.step_rules
                ]
                vias = sorted({spec.via for spec in specs})
                if len(vias) > 1:
                    raise RuleCompileError(
                        f"relation '{plan.rel.name}': step rules "
                        "propagate along different base relations "
                        f"({', '.join(vias)}); one sweep follows one "
                        "relation — split the strata or unify the "
                        "premises"
                    )
                self.specs[plan.rel.name] = specs

    # -- the dynamic stage -------------------------------------------------

    def _follow(self, plan: RelationPlan, ctx: FlowContext,
                source: FactSource):
        """The sweep's follow function. ``edge`` sweeps on graph-backed
        sources hand out the graph's own bound methods so
        single-direction boolean sweeps stay eligible for the CSR flat
        path; other base relations go through the source's indexed
        lookup."""
        specs = self.specs[plan.rel.name]
        via = specs[0].via
        directions = {spec.direction for spec in specs}
        graph_backed = (
            via == "edge" and isinstance(source, GraphFactSource)
        )
        if directions == {"successors"}:
            if graph_backed:
                return ctx.graph.successors
            return lambda item: [
                dst for _, dst in source.lookup(via, (item, None))
            ]
        if directions == {"predecessors"}:
            if graph_backed:
                return ctx.graph.predecessors
            return lambda item: [
                src for src, _ in source.lookup(via, (None, item))
            ]

        def both(item):
            for _, dst in source.lookup(via, (item, None)):
                yield dst
            for src, _ in source.lookup(via, (None, item)):
                yield src

        return both

    def run(
        self,
        ctx: Optional[FlowContext] = None,
        source: Optional[FactSource] = None,
        fuel=_AUTO,
        registry=None,
        explain: bool = False,
    ) -> RuleEvaluation:
        """Evaluate to fixpoint; returns a :class:`RuleEvaluation`.

        Pass a graph-bearing ``ctx`` (the source defaults to its
        :class:`~repro.rules.schema.GraphFactSource`) or an explicit
        ``source`` (the test/reference harness path). ``fuel``
        defaults to the context's linear budget when a graph is
        present, unlimited otherwise.
        """
        if ctx is None:
            ctx = FlowContext()
        if source is None:
            source = GraphFactSource(ctx)
        if registry is None:
            registry = ctx.registry
        if fuel is _AUTO:
            fuel = (
                ctx.default_fuel() if ctx.graph is not None else None
            )
        provenance: Optional[Dict] = {} if explain else None
        parents: Optional[Dict] = {} if explain else None
        extents = Extents(self.checked.relations)
        world = World(source, extents)
        joined = 0

        profiler = current_profiler()
        if profiler is not None:
            profiler.push("rules.eval")
        try:
            with registry.timer("rules.eval"):
                for level in self.checked.levels:
                    joined += self._run_level(
                        level, ctx, source, world, extents,
                        fuel, registry, provenance, parents,
                    )
        finally:
            if profiler is not None:
                profiler.pop()

        registry.counter("rules.join.derived").inc(joined)
        registry.counter("rules.facts").inc(extents.size())
        registry.gauge("rules.levels").set(len(self.checked.levels))
        registry.gauge("rules.relations").set(len(extents.relations))
        return RuleEvaluation(
            self.checked, extents, source,
            provenance=provenance, parents=parents, specs=self.specs,
        )

    def _run_level(
        self, level, ctx, source, world, extents,
        fuel, registry, provenance, parents,
    ) -> int:
        """One stratum: fire every seed/join rule once (inputs are
        complete), then fuse the stratum's recursive sweeps."""
        explain = provenance is not None
        joined = 0
        sweeps: List[Tuple[RelationPlan, object]] = []
        for plan in level:
            for rule in plan.seed_rules:
                for key, contribution, premises in list(
                    fire_rule(rule, world, explain=explain)
                ):
                    if extents.add(plan.rel, key, contribution):
                        joined += 1
                    if explain:
                        provenance.setdefault(
                            (plan.rel.name, key), (rule.name, premises)
                        )
            if plan.step_rules:
                sweeps.append(
                    (plan, self._sweep(plan, ctx, source, extents, parents))
                )
        if sweeps:
            results = run_fused(
                [analysis for _, analysis in sweeps],
                ctx, fuel=fuel, registry=registry,
            )
            for (plan, _), result in zip(sweeps, results):
                if plan.rel.bounded:
                    extents.replace(
                        plan.rel,
                        {(item,): ann for item, ann in result.items()},
                    )
                else:
                    extents.replace(
                        plan.rel, {(item,): True for item in result}
                    )
        return joined

    def _sweep(self, plan: RelationPlan, ctx, source, extents, parents):
        name = f"rule-{plan.rel.name}"
        follow = self._follow(plan, ctx, source)
        store = extents.data[plan.rel.name]
        record = None
        if parents is not None:
            rel_name = plan.rel.name

            def record(src, dst, _rel=rel_name):
                parents.setdefault((_rel, (dst,)), src)

        if plan.rel.bounded:
            seed_map = {key[0]: ann for key, ann in store.items()}
            if record is not None:
                return _RecordingBoundedAnalysis(
                    seed_map, plan.rel.k, follow, name, record
                )
            return _RuleBoundedAnalysis(seed_map, plan.rel.k, follow, name)
        sources = [key[0] for key in store]
        if record is not None:
            return _RecordingReachAnalysis(sources, follow, name, record)
        return _RuleReachAnalysis(sources, follow, name)


def compile_programs(
    programs: Sequence[RuleProgram],
    schema: Optional[Dict[str, Rel]] = None,
    require_linear: bool = True,
) -> CompiledRuleSet:
    """Convenience constructor mirroring :func:`check_programs`."""
    return CompiledRuleSet(
        programs, schema=schema, require_linear=require_linear
    )

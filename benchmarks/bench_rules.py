"""E18 — compiled rule sweep vs the hand-written fused sweep.

The declarative layer's claim (docs/RULES.md) is that compiling the
shipped lint programs onto :func:`~repro.flow.framework.run_fused`
costs essentially nothing over writing the same sweep by hand: the
checker only admits programs whose recursive rules *are* the fused
propagation analyses, so the compiled plan dequeues the same
(analysis, item) pairs the hand-built plan does, plus nothing.

Workload: the Table 1 cubic family. For each size the report runs

* the **hand** sweep — ``ReachabilityAnalysis`` (lambda values over
  predecessor edges) fused with ``EscapeAnalysis``, exactly the pair
  the L002/L004 lint passes demand; and
* the **rule** sweep — the ``lint-l002``/``lint-l004`` programs
  compiled together, whose single level-0 stratum fuses the same two
  propagations. (The full merged lint set — every L/F program — is
  E20's subject, :mod:`benchmarks.bench_rules_full`; this experiment
  pins the original two-analysis parity claim.)

Both count ``flow.steps.fused`` dequeues on private registries. The
acceptance bar is twofold: the step ratio (rules / hand) stays within
1.5x at every size, and the rule sweep's steps fit a straight line in
``nodes + edges`` with R² >= 0.99 — the compiled layer inherits the
linear-time guarantee, constant factor included.
"""

import pytest

from repro.bench import Table, linear_fit, time_call
from repro.core.lc import build_subtransitive_graph
from repro.flow import (
    EscapeAnalysis,
    FlowContext,
    ReachabilityAnalysis,
    run_fused,
)
from repro.obs import MetricsRegistry
from repro.rules.engine import CompiledRuleSet
from repro.rules.programs import L002_PROGRAM, L004_PROGRAM
from repro.workloads.cubic import make_cubic_program

SIZES = [8, 16, 32, 64, 128]

#: Step-ratio ceiling: the compiled sweep may not do more than 1.5x
#: the hand-written sweep's fused dequeues at any size.
RATIO_BOUND = 1.5


def _hand_sweep(program, sub, registry):
    """The hand-written twin: the two propagations the ported lint
    passes (L002 reach-lambda, L004 escape) actually demand, fused."""
    flow = FlowContext(program, sub, registry=registry)
    analyses = [
        ReachabilityAnalysis(
            flow.lambda_value_nodes,
            sub.graph.predecessors,
            name="reach-lambda",
        ),
        EscapeAnalysis(),
    ]
    return run_fused(analyses, flow, fuel=flow.default_fuel())


def _rule_sweep(program, sub, registry, rule_set):
    """The compiled twin: one CompiledRuleSet.run over the graph."""
    flow = FlowContext(program, sub, registry=registry)
    return rule_set.run(ctx=flow, registry=registry)


def run_report(sizes=SIZES):
    table = Table(
        [
            "n", "n+e", "hand steps", "rule steps", "ratio",
            "hand t", "rule t",
        ],
        title="E18 — compiled rule sweep vs hand-written fused sweep",
    )
    rule_set = CompiledRuleSet((L002_PROGRAM, L004_PROGRAM))
    rows = []
    for n in sizes:
        program = make_cubic_program(n)
        sub = build_subtransitive_graph(program)

        hand_registry = MetricsRegistry()
        hand_seconds = time_call(
            lambda: _hand_sweep(program, sub, hand_registry), repeat=3
        )
        hand_steps = (
            hand_registry.counter("flow.steps.fused").value // 3
        )

        rule_registry = MetricsRegistry()
        rule_seconds = time_call(
            lambda: _rule_sweep(program, sub, rule_registry, rule_set),
            repeat=3,
        )
        rule_steps = (
            rule_registry.counter("flow.steps.fused").value // 3
        )

        work = sub.graph.node_count + sub.graph.edge_count
        ratio = rule_steps / hand_steps if hand_steps else 0.0
        table.add_row(
            n, work, hand_steps, rule_steps, ratio,
            hand_seconds, rule_seconds,
        )
        rows.append(
            {
                "size": program.size,
                "work": work,
                "hand_steps": hand_steps,
                "rule_steps": rule_steps,
                "ratio": ratio,
                "hand_seconds": hand_seconds,
                "rule_seconds": rule_seconds,
            }
        )
    slope, intercept, r2 = linear_fit(
        [r["work"] for r in rows], [r["rule_steps"] for r in rows]
    )
    summary = {"slope": slope, "intercept": intercept, "r2": r2}
    return table, {"rows": rows, "fit": summary}


@pytest.mark.parametrize("n", [16, 32])
def test_rule_sweep(benchmark, n):
    program = make_cubic_program(n)
    sub = build_subtransitive_graph(program)
    registry = MetricsRegistry()
    rule_set = CompiledRuleSet((L002_PROGRAM, L004_PROGRAM))
    benchmark(
        lambda: _rule_sweep(program, sub, registry, rule_set)
    )


def test_rule_sweep_parity_and_linear():
    _, report = run_report(sizes=[8, 16, 32, 64])
    for row in report["rows"]:
        # Compiled-onto-fused means the same worklist discipline: the
        # rule sweep may not dequeue more than 1.5x the hand sweep.
        assert row["ratio"] <= RATIO_BOUND, row
    fit = report["fit"]
    assert fit["r2"] >= 0.99, fit


if __name__ == "__main__":
    table, report = run_report()
    print(table.render())
    fit = report["fit"]
    worst = max(r["ratio"] for r in report["rows"])
    print(
        f"rule steps ~= {fit['slope']:.3f}*(n+e) + "
        f"{fit['intercept']:.1f} (R^2 = {fit['r2']:.5f}); "
        f"worst step ratio {worst:.3f}x (bound {RATIO_BOUND}x)"
    )

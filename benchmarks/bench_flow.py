"""E16 — fused flow sweep: one worklist, linear in the graph.

The :mod:`repro.flow` framework's claim is that the fused multi-pass
sweep (lambda-reachability, escape, taint, neededness, constructor
sets — five analyses on one shared worklist) does work proportional to
the subtransitive graph itself. The deterministic evidence is the
``flow.steps.fused`` counter: every (analysis, item) dequeue is one
step, so a linear engine keeps steps = O(nodes + edges) with a small
constant.

Workload: the Table 1 cubic family (the adversarial join structure).
The report fits ``steps`` against ``nodes + edges`` with a plain
least-squares line and asserts R² >= 0.99 — the raw-series linearity
claim, stronger than a log-log exponent because it pins the constant
factor too.
"""

import pytest

from repro.bench import Table, linear_fit, time_call
from repro.core.lc import build_subtransitive_graph
from repro.flow import (
    ConstructorAnalysis,
    EscapeAnalysis,
    FlowContext,
    NeednessAnalysis,
    ReachabilityAnalysis,
    TaintAnalysis,
    run_fused,
)
from repro.obs import MetricsRegistry
from repro.workloads.cubic import make_cubic_program

SIZES = [8, 16, 32, 64, 128]

#: Analysis names in worklist-slot order (= report column order).
ANALYSES = ("reach-lambda", "escape", "taint", "needness", "constructors")


def _fused_sweep(program, sub, registry):
    """One fused five-analysis sweep, exactly as a lint run fuses it."""
    flow = FlowContext(program, sub, registry=registry)
    analyses = [
        ReachabilityAnalysis(
            flow.lambda_value_nodes,
            sub.graph.predecessors,
            name="reach-lambda",
        ),
        EscapeAnalysis(),
        TaintAnalysis(),
        NeednessAnalysis(),
        ConstructorAnalysis(flow),
    ]
    return run_fused(analyses, flow, fuel=flow.default_fuel())


def run_report(sizes=SIZES):
    table = Table(
        ["n", "nodes", "edges", "n+e", "steps", "steps/(n+e)", "sweep t"],
        title="E16 — fused flow sweep over the subtransitive graph",
    )
    rows = []
    for n in sizes:
        program = make_cubic_program(n)
        sub = build_subtransitive_graph(program)
        registry = MetricsRegistry()

        def run():
            _fused_sweep(program, sub, registry)

        seconds = time_call(run, repeat=3)
        # time_call ran the sweep 3 times into one registry; the
        # deterministic per-run step count is the total divided back.
        steps = registry.counter("flow.steps.fused").value // 3
        work = sub.graph.node_count + sub.graph.edge_count
        table.add_row(
            n,
            sub.graph.node_count,
            sub.graph.edge_count,
            work,
            steps,
            steps / work,
            seconds,
        )
        rows.append(
            {
                "size": program.size,
                "nodes": sub.graph.node_count,
                "edges": sub.graph.edge_count,
                "work": work,
                "steps": steps,
                "seconds": seconds,
            }
        )
    slope, intercept, r2 = linear_fit(
        [r["work"] for r in rows], [r["steps"] for r in rows]
    )
    summary = {"slope": slope, "intercept": intercept, "r2": r2}
    return table, {"rows": rows, "fit": summary}


@pytest.mark.parametrize("n", [16, 32])
def test_fused_sweep(benchmark, n):
    program = make_cubic_program(n)
    sub = build_subtransitive_graph(program)
    registry = MetricsRegistry()
    benchmark(lambda: _fused_sweep(program, sub, registry))


def test_fused_sweep_linear():
    _, report = run_report(sizes=[8, 16, 32, 64])
    fit = report["fit"]
    # Steps grow as a straight line in nodes+edges: the fused sweep is
    # linear in the graph, constant factor included.
    assert fit["r2"] >= 0.99, fit
    assert fit["slope"] < 8.0, fit


if __name__ == "__main__":
    table, report = run_report()
    print(table.render())
    fit = report["fit"]
    print(
        f"steps ~= {fit['slope']:.3f}*(n+e) + {fit['intercept']:.1f} "
        f"(R^2 = {fit['r2']:.5f})"
    )

"""E19 (extra) — incremental daemon: warm delta vs cold re-analysis.

The always-on daemon (docs/DAEMON.md) keeps a project's LC' graph
warm and, on redefinition, retracts only the edges justified by the
replaced binding before running the close phase from the delta
worklist. This experiment measures the payoff on the paper's cubic
family (Section 10, Table 1), entered one binding at a time the way
an editor session would:

* **cold**: parse + build + close of the whole rendered program —
  what every keystroke costs without the daemon;
* **warm**: redefining one leaf binding (``x_n``) through the delta
  engine, envelope-equivalent to the cold run by construction
  (enforced in tests/test_daemon_delta.py);
* **replay**: the daemon's full rebuild of the same project (what a
  ``rename-shift`` fallback or an evicted project's rehydration
  costs): one rename pass, one index, one build-then-close.
  ``replay/cold`` compares it with the cold run; it is reported only,
  with no wall-clock assertion.

The claim: warm cost tracks the *delta's* neighbourhood, not the
program, so the speedup grows with n while retraction counts stay
flat. The acceptance floor is 10x at the largest size.
"""

import pytest

from repro.bench import Table, time_call
from repro.daemon import ProjectAnalysis

SIZES = [5, 10, 20, 40]

#: The warm redefinition target: a binder-free application binding,
#: always delta-eligible (no fresh-name consumption to shift).
REDEFINE_TEMPLATE = "b{n} (fs f{n})"


def cubic_bindings(n):
    """The size-``n`` cubic family as (name, source) define steps."""
    bindings = [("fs", "fn[fs] x => x"), ("bs", "fn[bs] x => x")]
    for i in range(1, n + 1):
        bindings.append((f"f{i}", f"fn[f{i}] x => x"))
        bindings.append((f"b{i}", f"fn[b{i}] x => x"))
        bindings.append((f"x{i}", f"b{i} (fs f{i})"))
        bindings.append((f"y{i}", f"(bs b{i}) f{i}"))
    return bindings


def warm_project(n):
    pa = ProjectAnalysis()
    for name, source in cubic_bindings(n):
        pa.define(name, source)
    return pa


def run_report(sizes=SIZES):
    table = Table(
        [
            "n",
            "defs",
            "edges",
            "cold t",
            "warm t",
            "speedup",
            "replay t",
            "replay/cold",
            "retracted",
            "fallbacks",
        ],
        title="E19 — daemon: warm redefine vs cold re-analysis",
    )
    rows = []
    for n in sizes:
        pa = warm_project(n)
        source = pa.render_source()
        history = [(entry.name, entry.source) for entry in pa.defs]

        cold_time = time_call(
            lambda: ProjectAnalysis.cold_cfa(source), repeat=3
        )
        replay_time = time_call(
            lambda: ProjectAnalysis().rehydrate(history), repeat=3
        )

        target = f"x{n}"
        new_source = REDEFINE_TEMPLATE.format(n=n)
        reports = []
        warm_time = time_call(
            lambda: reports.append(pa.define(target, new_source)),
            repeat=3,
        )
        last = reports[-1]
        assert last["delta"] is True, last
        fallbacks = sum(pa.fallbacks.values())
        speedup = cold_time / warm_time if warm_time else float("inf")
        table.add_row(
            n,
            len(pa.defs),
            last["graph"]["edges"],
            cold_time,
            warm_time,
            f"{speedup:.1f}x",
            replay_time,
            f"{replay_time / cold_time:.2f}x",
            last["retracted_edges"],
            fallbacks,
        )
        rows.append(
            {
                "n": n,
                "defs": len(pa.defs),
                "edges": last["graph"]["edges"],
                "cold_time": cold_time,
                "warm_time": warm_time,
                "speedup": speedup,
                "replay_time": replay_time,
                "replay_over_cold": replay_time / cold_time,
                "retracted_edges": last["retracted_edges"],
                "retracted_close_edges": last["retracted_close_edges"],
                "fallbacks": fallbacks,
            }
        )
    return table, rows


@pytest.mark.parametrize("n", [5, 20])
def test_warm_redefine(benchmark, n):
    pa = warm_project(n)
    new_source = REDEFINE_TEMPLATE.format(n=n)
    benchmark(lambda: pa.define(f"x{n}", new_source))


@pytest.mark.parametrize("n", [5, 20])
def test_cold_analysis(benchmark, n):
    source = warm_project(n).render_source()
    benchmark(lambda: ProjectAnalysis.cold_cfa(source))


def test_daemon_shape():
    _, rows = run_report(sizes=[5, 10, 20])
    for row in rows:
        # The delta never falls back on the cubic family: the
        # redefined binding is binder-free.
        assert row["fallbacks"] == 0, row
    # Retractions track the replaced binding's neighbourhood, not the
    # program: flat (within noise) while the graph grows ~4x.
    first, last = rows[0], rows[-1]
    assert last["edges"] > 2 * first["edges"]
    assert last["retracted_edges"] <= 2 * max(first["retracted_edges"], 8)
    # The speedup grows with n and clears the acceptance floor at the
    # largest size measured here.
    assert last["speedup"] >= 10, rows


if __name__ == "__main__":
    table, rows = run_report()
    print(table.render())
    last = rows[-1]
    print(
        f"n={last['n']}: warm {last['warm_time']:.6f}s vs "
        f"cold {last['cold_time']:.6f}s — {last['speedup']:.1f}x, "
        f"{last['retracted_edges']} edges retracted; full replay "
        f"{last['replay_time']:.6f}s ({last['replay_over_cold']:.2f}x cold)"
    )

"""The per-layer metrics of the traced run, shared by every workload.

Each workload's traced run replays a fixed, seeded prefix of its
traffic in-process twice -- once plain, once with the span recorder
installed -- and hands both to :func:`report_layers`. Count metrics
come from that fixed prefix, so one seed always gives the same counts.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

from common import SPANS_DIR, Report, median, repro_argv, run_proc
from spans import Recorder

#: Every per-layer metric the traced run reports, with its unit. The
#: same list is ``per_layer`` in BENCHMARK.json. A ratio's unit names
#: its base.
PER_LAYER = (
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.parser_ms", "ms"),
    ("cli.startup_share", "startup/request"),
    ("lang.parse.self_s", "s"),
    ("lang.parse.nodes", "count"),
    ("lang.parse.nodes_per_s", "nodes/s"),
    ("types.infer.self_s", "s"),
    ("core.lc.self_s", "s"),
    ("core.build.nodes", "count"),
    ("core.close.nodes", "count"),
    ("core.edges", "count"),
    ("core.demanded_nodes", "count"),
    ("core.query.self_s", "s"),
    ("core.query.visited_nodes", "count"),
    ("lint.self_s", "s"),
    ("lint.findings", "count"),
    ("flow.steps", "count"),
    ("rules.lint.self_s", "s"),
    ("rules.vs_hand_ratio", "rules/hand"),
    ("export.envelope.self_s", "s"),
    ("export.json.self_s", "s"),
    ("export.envelope_bytes", "bytes"),
    ("cfa.fallback_jobs", "count"),
    ("serve.cache.hit_ratio", "hits/lookups"),
    ("serve.redundant_misses", "count"),
    ("daemon.delta.mode.splice", "count"),
    ("daemon.delta.mode.delta", "count"),
    ("daemon.delta.mode.append", "count"),
    ("daemon.delta.mode.replay", "count"),
    ("daemon.delta.fast_path_ratio", "splices/edits"),
    ("daemon.delta.retracted_edges", "count"),
    ("daemon.delta.rederived_edges", "count"),
    ("runtime.gc.pause_s", "s"),
    ("runtime.gc.collections", "count"),
    ("trace.coverage", "layers/wall"),
    ("trace.overhead", "traced/untraced"),
)

#: Layer times that only one workload's traffic crosses. They are
#: printed in the layer table but kept out of the result line, where a
#: time that reads 0 on the other workloads would carry no signal.
PRINTED_ONLY = (
    ("cfa.standard.self_s", "s"),
    ("serve.cache.get.self_s", "s"),
    ("serve.cache.put.self_s", "s"),
    ("serve.pool.overhead_s", "s"),
    ("daemon.delta.self_s", "s"),
    ("daemon.server.overhead_ms", "ms"),
    ("daemon.status.gen_late_ms", "ms"),
)

#: Span names the benchmark opens around its own work, not the program's.
BENCH_SPANS = ("rules.lint", "bench")

_PROBES = {
    "interp": "pass",
    "import": (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    ),
    "parser": (
        "import time, repro.cli as c; t = time.perf_counter(); "
        "c.build_parser(); print(time.perf_counter() - t)"
    ),
}


def startup_probes(report: Report, reps: int = 3) -> Dict[str, float]:
    """Fresh-process start-up costs in ms: bare interpreter (wall, the
    floor), ``import repro.cli`` and ``build_parser()`` (timed inside
    the process)."""
    import sys

    samples: Dict[str, List[float]] = {k: [] for k in _PROBES}
    for _ in range(reps):
        for key, code in _PROBES.items():
            proc = run_proc([sys.executable, "-c", code])
            if not report.check(proc.returncode == 0, f"{key} probe exited {proc.returncode}"):
                continue
            if key == "interp":
                samples[key].append(proc.seconds * 1000.0)
            else:
                samples[key].append(float(proc.stdout.strip()) * 1000.0)
    report.attempted += reps * len(_PROBES)
    return {k: median(v) if v else 0.0 for k, v in samples.items()}


def cli_request_ms(argv: List[str], reps: int, report: Report) -> float:
    """Median wall of a real ``python -m repro`` request."""
    walls = []
    for _ in range(reps):
        proc = run_proc(repro_argv(*argv))
        report.attempted += 1
        if report.check(proc.returncode in (0, 1), f"request {argv} exited {proc.returncode}"):
            walls.append(proc.seconds * 1000.0)
    return median(walls) if walls else 0.0


class TracedPass:
    """Times one replay function plain and traced."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self._start = 0.0

    def mark(self) -> None:
        """Restart the pass clock (and the GC tally) after a replay's
        own set-up, so only the replayed traffic is timed."""
        self._start = time.perf_counter()
        self.rec.gc_pause_s = 0.0
        self.rec.gc_collections = 0

    def run(self, replay, install, warmup=None) -> tuple:
        """``replay(rec)`` does the work (``rec`` is None when plain);
        ``install(rec)`` wraps the layers; ``warmup()`` runs first,
        untimed, so lazy imports land in neither pass. Returns both
        outputs."""
        if warmup is not None:
            warmup()
        self._start = time.perf_counter()
        plain = replay(None)
        self.untraced_s = time.perf_counter() - self._start
        install(self.rec)
        self.rec.start_gc()
        self._start = time.perf_counter()
        try:
            traced = replay(self.rec)
        finally:
            self.traced_s = time.perf_counter() - self._start
            self.rec.uninstall()
        return plain, traced


def report_layers(
    report: Report,
    traced: TracedPass,
    probes: Dict[str, float],
    request_ms: float,
    extra: Optional[Dict[str, float]] = None,
) -> None:
    """Fill ``report`` with every per-layer metric and print the table."""
    rec = traced.rec
    selfs = rec.self_times()
    twin_s = sum(e - s for n, s, e, _, _ in rec.spans if n == "rules.lint")
    bench_s = sum(e - s for n, s, e, _, _ in rec.spans if n in BENCH_SPANS)
    wall = traced.traced_s - bench_s
    program_self = sum(v for k, v in selfs.items() if k not in BENCH_SPANS)
    counts = rec.counts
    startup = probes["interp"] + probes["import"] + probes["parser"]
    parse_s = selfs.get("lang.parse", 0.0)
    lint_total = rec.total("lint")
    values: Dict[str, float] = {
        "cli.interp_ms": probes["interp"],
        "cli.import_ms": probes["import"],
        "cli.parser_ms": probes["parser"],
        "cli.startup_share": startup / request_ms if request_ms else 0.0,
        "lang.parse.self_s": parse_s,
        "lang.parse.nodes": counts.get("lang.parse.nodes", 0),
        "lang.parse.nodes_per_s": (
            counts.get("lang.parse.nodes", 0) / parse_s if parse_s else 0.0
        ),
        "types.infer.self_s": selfs.get("types.infer", 0.0),
        "core.lc.self_s": selfs.get("core.lc", 0.0),
        "core.query.self_s": selfs.get("core.query", 0.0),
        "lint.self_s": selfs.get("lint", 0.0),
        "rules.lint.self_s": twin_s,
        "rules.vs_hand_ratio": twin_s / lint_total if lint_total else 0.0,
        "export.envelope.self_s": selfs.get("export.envelope", 0.0),
        "export.json.self_s": selfs.get("export.json", 0.0),
        "runtime.gc.pause_s": rec.gc_pause_s,
        "runtime.gc.collections": rec.gc_collections,
        "trace.coverage": program_self / wall if wall > 0 else 0.0,
        "trace.overhead": wall / traced.untraced_s if traced.untraced_s else 0.0,
        "cfa.standard.self_s": selfs.get("cfa.standard", 0.0),
        "serve.cache.get.self_s": selfs.get("serve.cache.get", 0.0),
        "serve.cache.put.self_s": selfs.get("serve.cache.put", 0.0),
        "daemon.delta.self_s": selfs.get("daemon.delta", 0.0),
    }
    for name in ("core.build.nodes", "core.close.nodes", "core.edges",
                 "core.demanded_nodes", "core.query.visited_nodes",
                 "lint.findings", "flow.steps", "export.envelope_bytes"):
        values[name] = counts.get(name, 0)
    values.update(extra or {})
    report.line(
        f"traced pass: {len(rec.spans)} spans over {rec.requests()} requests, "
        f"wall {traced.traced_s:.3f}s traced ({twin_s:.3f}s of it the rules twin, "
        f"{bench_s - twin_s:.3f}s bookkeeping) "
        f"vs {traced.untraced_s:.3f}s plain"
    )
    report.line(f"{'span self time':<28} {'seconds':>10}  share of traced wall")
    report.check(rec.twin_mismatches == 0,
                 f"{rec.twin_mismatches} hand lint results differ from the rules twin")
    report.attempted += rec.twins
    for name in sorted(selfs, key=lambda k: -selfs[k]):
        share = selfs[name] / wall if wall > 0 else 0.0
        report.line(f"  {name:<26} {selfs[name]:10.4f}  {share:6.1%}")
    for name, unit in PER_LAYER:
        value = values.get(name, 0)
        report.put(name, value, unit)
        report.value(name, value, unit)
    for name, unit in PRINTED_ONLY:
        report.value(name, values.get(name, 0.0), unit, "printed only")
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"{report.workload}-seed{report.seed}.jsonl")
    rec.dump(path)
    report.line(f"spans written to {os.path.relpath(path)}")

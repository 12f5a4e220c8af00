"""batch-corpus: a seeded corpus of ``.lam`` files through ``repro batch``.

Each round is a cold pass (``repro batch DIR --jobs 2 --lint --cache-dir
<fresh> --format jsonl``) and, after a seeded share of the files has been
edited, a rerun pass by a second process on the same cache directory.
The cold pass is where parsing, inference, LC', lint and export do most
of the work; the rerun pass reads the cache instead of writing it.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
from typing import Dict, List, NamedTuple, Optional

import inputs
import oracle
from common import (
    Report,
    children_peak_rss_mb,
    make_workdir,
    median,
    remove_workdir,
    repro_argv,
    run_proc,
)
from layers import TracedPass, report_layers, startup_probes

SETUPS = 7
MIN_ROUNDS = 3
OK_STATUSES = ("ok", "degraded")
SETUP_PROGRAM = "let id = fn[id] x => x in id (fn[g] y => y)\n"


def _batch_argv(corpus_dir: str, cache_dir: str) -> List[str]:
    return repro_argv(
        "batch", corpus_dir, "--jobs", "2", "--lint",
        "--cache-dir", cache_dir, "--format", "jsonl",
    )


def _write_all(corpus_dir: str, sources) -> None:
    for source in sources:
        with open(os.path.join(corpus_dir, source.name), "w", encoding="utf-8") as fh:
            fh.write(source.text)


def _jobs(proc, expected: int) -> Optional[Dict[str, dict]]:
    """Job records by file name, or None when the stream is unusable."""
    from repro.serve import read_jsonl

    if proc.returncode != 0:
        return None
    try:
        records = read_jsonl(proc.stdout)
    except Exception:
        return None
    jobs = {
        os.path.basename(r["path"]): r for r in records if r["record"] == "job"
    }
    kinds = [r["record"] for r in records]
    if kinds[0] != "header" or kinds[-1] != "summary" or len(jobs) != expected:
        return None
    return jobs


class _Oracle:
    """Checks an envelope once per distinct source text."""

    def __init__(self) -> None:
        self.done: Dict[str, Optional[str]] = {}

    def __call__(self, source, record, cache_dir: str) -> Optional[str]:
        from repro.export import result_fingerprint
        from repro.serve import ResultCache

        if record["status"] not in OK_STATUSES:
            return f"status {record['status']}: {record.get('error')}"
        hit = ResultCache(cache_dir=cache_dir).get(record["key"])
        if hit is None:
            return "envelope missing from the cache directory"
        envelope = hit[0]
        if result_fingerprint(envelope) != record["fingerprint"]:
            return "fingerprint does not match the cached envelope"
        counts = (record.get("lint") or {}).get("by_rule")
        if counts != envelope["lint"]["counts"]:
            return "lint counts differ from the envelope"
        if source.text not in self.done:
            try:
                self.done[source.text] = (
                    oracle.call_graph(source.text, envelope, source.cls)
                    or oracle.lint_findings(source.text, envelope["lint"]["findings"])
                )
            except Exception as error:
                self.done[source.text] = f"check raised {type(error).__name__}: {error}"
        return self.done[source.text]


class _Job(NamedTuple):
    name: str
    status: str
    cache: str
    key: str
    fingerprint: Optional[str]


def redundant_misses(jobs) -> int:
    """Misses on a key an earlier job of the same batch already had:
    ``jobs`` is (cache, key) in job order."""
    seen = set()
    wasted = 0
    for cache, key in jobs:
        if cache == "miss" and key in seen:
            wasted += 1
        seen.add(key)
    return wasted


def run(seed: int, seconds: float, report: Report) -> None:
    corpus = inputs.batch_corpus(seed)
    edits = inputs.batch_edits(seed, corpus)
    by_name = {s.name: s for s in corpus}
    workdir = make_workdir("batch")
    try:
        setup_dir = os.path.join(workdir, "setup")
        os.makedirs(setup_dir)
        with open(os.path.join(setup_dir, "setup.lam"), "w", encoding="utf-8") as fh:
            fh.write(SETUP_PROGRAM)
        corpus_dir = os.path.join(workdir, "corpus")
        os.makedirs(corpus_dir)
        _write_all(corpus_dir, corpus)
        setups = []
        for i in range(SETUPS):
            proc = run_proc(_batch_argv(setup_dir, os.path.join(workdir, f"setup-cache{i}")))
            report.attempted += 1
            if report.check(_jobs(proc, 1) is not None, f"setup batch exited {proc.returncode}"):
                setups.append(proc.seconds)
        rounds = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(rounds) < MIN_ROUNDS:
            cache_dir = os.path.join(workdir, f"cache{len(rounds)}")
            if rounds:
                _write_all(corpus_dir, [by_name[name] for name in edits])
            cold = run_proc(_batch_argv(corpus_dir, cache_dir))
            _write_all(corpus_dir, edits.values())
            rerun = run_proc(_batch_argv(corpus_dir, cache_dir))
            rounds.append((cold, rerun))
            if len(rounds) > 1:
                shutil.rmtree(cache_dir, ignore_errors=True)
        rss = children_peak_rss_mb()
        latencies = _check_rounds(report, rounds, by_name, edits, os.path.join(workdir, "cache0"))
    finally:
        remove_workdir(workdir)
    n = len(corpus)
    cold_rate = n * len(rounds) / sum(cold.seconds for cold, _ in rounds)
    rerun_rate = n * len(rounds) / sum(rerun.seconds for _, rerun in rounds)
    report.line(
        f"{len(rounds)} rounds of {n} programs ({len(edits)} edited between passes)"
    )
    report.value("batch_cold_programs_per_s", cold_rate, "1/s", f"over {len(rounds)} cold passes")
    report.value("batch_rerun_programs_per_s", rerun_rate, "1/s", f"over {len(rounds)} rerun passes")
    report.latency("job", latencies, (50, 80, 90))
    # Raw figures: the calibration loop does not track this workload
    # (its pass times did not follow the loop's, pass by pass or run by
    # run, while they do for the CLI and the daemon).
    report.gate("setup_s", median(setups), "s")
    report.gate("mean_ms", sum(latencies) / len(latencies) * 1000.0, "ms")
    report.gate("throughput_per_s", cold_rate, "1/s")
    report.gate("peak_rss_mb", rss, "MB")


def _check_rounds(report, rounds, by_name, edits, cache0) -> List[float]:
    """Check every job record; return the cold-pass job latencies."""
    n = len(by_name)
    check = _Oracle()
    first: Optional[tuple] = None
    latencies: List[float] = []
    for index, (cold, rerun) in enumerate(rounds):
        passes = (_jobs(cold, n), _jobs(rerun, n))
        report.attempted += 2 * n
        if passes[0] is None or passes[1] is None:
            for jobs, proc, what in zip(passes, (cold, rerun), ("cold", "rerun")):
                if jobs is None:
                    report.failed += n - 1
                    report.fail(f"round {index} {what} pass unusable (exit {proc.returncode})")
            continue
        cold_jobs, rerun_jobs = passes
        if index == 0:
            first = passes
            report.line(
                f"round 0: {redundant_misses((r['cache'], r['key']) for r in sorted(cold_jobs.values(), key=lambda r: r['id']))} "
                "redundant misses (in-batch duplicates analysed twice)"
            )
        for name, record in cold_jobs.items():
            if index == 0:
                problem = check(by_name[name], record, cache0)
                if problem is None and record["cache"] != "miss":
                    problem = f"cold pass served {record['cache']}"
            else:
                problem = _same(record, first[0][name])
            if problem:
                report.fail(f"cold {name}: {problem}")
            else:
                latencies.append(record["seconds"])
        for name, record in rerun_jobs.items():
            if index == 0:
                if name in edits:
                    problem = check(edits[name], record, cache0)
                    if problem is None and record["cache"] != "miss":
                        problem = f"edited file served {record['cache']}"
                else:
                    problem = _same(record, cold_jobs[name])
                    if problem is None and record["cache"] == "miss":
                        problem = "unedited file missed the cache"
            else:
                problem = _same(record, first[1][name])
            if problem:
                report.fail(f"rerun {name}: {problem}")
    return latencies


def _same(record, reference) -> Optional[str]:
    for key in ("status", "fingerprint", "fallback_reason"):
        if record[key] != reference[key]:
            return f"{key} {record[key]!r} != {reference[key]!r} of the checked run"
    return None


# -- traced pass --------------------------------------------------------------------


def trace(seed: int, seconds: float, report: Report) -> None:
    from repro.serve import BatchRunner, expand_inputs
    from spans import install_layers

    corpus = inputs.batch_corpus(seed)
    edits = inputs.batch_edits(seed, corpus)
    by_name = {s.name: s for s in corpus}
    options = {"algorithm": "hybrid", "lint": True}
    workdir = make_workdir("batch-trace")
    try:
        corpus_dir = os.path.join(workdir, "corpus")
        os.makedirs(corpus_dir)
        _write_all(corpus_dir, corpus)
        paths = expand_inputs([corpus_dir])
        probes = startup_probes(report)
        real = run_proc(_batch_argv(corpus_dir, os.path.join(workdir, "real-cache")))
        report.attempted += 1
        report.check(_jobs(real, len(corpus)) is not None, f"batch exited {real.returncode}")
        caches = iter(range(2))

        def replay(rec):
            cache_dir = os.path.join(workdir, f"cache{next(caches)}")
            out = []
            for phase in ("cold", "rerun"):
                if phase == "rerun":
                    _write_all(corpus_dir, edits.values())
                runner = BatchRunner(jobs=1, options=options, cache_dir=cache_dir)
                span = contextlib.nullcontext()
                if rec is not None:
                    rec.start_batch(f"{phase}-")
                    span = rec.span(f"serve.batch.{phase}")
                with span:
                    results = runner.run_paths(paths).results
                # Keep only what the checks need: envelopes held here
                # would inflate every later garbage collection.
                out.append([_Job(os.path.basename(r.path), r.status, r.cache,
                                 r.key, r.fingerprint) for r in results])
            _write_all(corpus_dir, [by_name[name] for name in edits])
            return out

        def install(rec):
            install_layers(rec)
            rec.patch_function(
                "repro.serve.worker", "run_job", "serve.job",
                rid_of=lambda a, k: f"{rec.prefix}job-{a[0]['jid']}",
            )

        traced = TracedPass()
        plain, outputs = traced.run(replay, install)
        pool = BatchRunner(jobs=2, options=options, cache_dir=os.path.join(workdir, "pool-cache"))
        start = time.perf_counter()
        pooled = pool.run_paths(paths).results
        pool_wall = time.perf_counter() - start
    finally:
        remove_workdir(workdir)
    for phase, results, reference in zip(("cold", "rerun"), outputs, plain):
        for job, ref in zip(results, reference):
            report.attempted += 1
            source = edits.get(job.name, by_name[job.name]) if phase == "rerun" else by_name[job.name]
            degraded = source.cls in inputs.DEGRADED_CLASSES
            if job != ref:
                report.fail(f"{phase} {job.name}: traced result differs from plain")
            elif job.status not in OK_STATUSES or (job.status == "degraded") != degraded:
                report.fail(f"{phase} {job.name}: status {job.status} on a {source.cls} program")
    report.attempted += 1
    if [r.fingerprint for r in pooled] != [job.fingerprint for job in outputs[0]]:
        report.fail("pooled batch results differ from in-process ones")
    cold, rerun = outputs
    hits = sum(1 for job in cold + rerun if job.cache != "miss")
    extra = {
        "cfa.fallback_jobs": sum(1 for job in cold if job.status == "degraded"),
        "serve.cache.hit_ratio": hits / (len(cold) + len(rerun)),
        "serve.redundant_misses": redundant_misses((job.cache, job.key) for job in cold),
        "serve.pool.overhead_s": pool_wall - sum(r.seconds for r in pooled) / 2,
    }
    report.line(f"in-process jobs=2 pool: {pool_wall:.3f}s wall for {len(pooled)} jobs")
    report_layers(report, traced, probes, real.seconds * 1000.0, extra)

"""cli-oneshot: one closed-loop client, a fresh ``python -m repro``
process per request.

Each request is ``analyze --json FILE`` or ``lint --format json FILE`` on
one small program (the examples plus small generated ones). Process
start, imports and argument parsing dominate, so this is the workload
where CLI start-up shows; engine changes should leave it unchanged.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import time
from typing import Dict, List, Optional, Tuple

import inputs
import oracle
from common import (
    Report,
    Speed,
    children_peak_rss_mb,
    make_workdir,
    median,
    remove_workdir,
    repro_argv,
    run_proc,
)
from layers import (
    TracedPass,
    cli_request_ms,
    report_layers,
    startup_probes,
)

#: Minimum requests per run, so the p80 has ten samples beyond it.
MIN_REQUESTS = 55
SETUPS = 7
#: Requests replayed in-process by the traced run.
TRACED_REQUESTS = 60


def _argv(command: str, path: str) -> List[str]:
    if command == "analyze":
        return ["analyze", "--json", path]
    return ["lint", "--format", "json", path]


def _write(workdir: str, programs) -> Dict[str, str]:
    paths = {}
    for program in programs:
        path = os.path.join(workdir, program.name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(program.text)
        paths[program.name] = path
    return paths


def _normalised(command: str, stdout: str):
    """The output with its wall-clock fields dropped (lint documents
    carry per-pass seconds)."""
    document = json.loads(stdout)
    if command == "lint":
        for entry in document.get("files", []):
            entry.pop("pass_seconds", None)
    return document


def check_output(command: str, program, returncode: int, stdout: str) -> Optional[str]:
    """Why one request's output is wrong, or None."""
    if command == "analyze":
        if returncode != 0:
            return f"analyze exited {returncode}"
        return oracle.call_graph(program.text, json.loads(stdout), program.cls)
    if returncode not in (0, 1):
        return f"lint exited {returncode}"
    document = json.loads(stdout)
    if document.get("errors") or len(document.get("files", [])) != 1:
        return f"lint errors: {document.get('errors')}"
    entry = document["files"][0]
    problem = oracle.degraded_status(
        program.cls,
        {"name": entry["engine"], "fallback_reason": entry["fallback_reason"]},
    )
    return problem or oracle.lint_findings(program.text, entry["findings"])


class _Checker:
    """Checks each distinct (command, program) output against the
    oracle once; repeats must reproduce the checked output."""

    def __init__(self) -> None:
        self.seen: Dict[Tuple[str, str], Tuple[object, Optional[str]]] = {}

    def __call__(self, command, program, returncode, stdout) -> Optional[str]:
        try:
            document = _normalised(command, stdout)
        except ValueError:
            return f"{command} {program.name}: output is not JSON (exit {returncode})"
        key = (command, program.name)
        if key not in self.seen:
            try:
                problem = check_output(command, program, returncode, stdout)
            except Exception as error:  # a crash in the check is a failure
                problem = f"check raised {type(error).__name__}: {error}"
            self.seen[key] = (document, problem)
        first, problem = self.seen[key]
        if problem:
            return f"{command} {program.name}: {problem}"
        if document != first:
            return f"{command} {program.name}: output differs between requests"
        return None


def run(seed: int, seconds: float, report: Report) -> None:
    programs = inputs.cli_programs(seed)
    workdir = make_workdir("cli")
    try:
        paths = _write(workdir, programs)
        stream = inputs.cli_requests(seed, programs)
        speed = Speed()
        setups = []
        for _ in range(SETUPS):
            speed.sample(2)
            proc = run_proc(repro_argv("--help"))
            report.attempted += 1
            if report.check(proc.returncode == 0, f"--help exited {proc.returncode}"):
                setups.append(proc.seconds)
        done: List[tuple] = []
        speed.seconds = 0.0
        start = time.perf_counter()
        while time.perf_counter() - start - speed.seconds < seconds or len(done) < MIN_REQUESTS:
            speed.sample(2)
            command, program = next(stream)
            proc = run_proc(repro_argv(*_argv(command, paths[program.name])))
            done.append((command, program, proc))
        wall = time.perf_counter() - start - speed.seconds
        rss = children_peak_rss_mb()
        checker = _Checker()
        latencies = []
        for command, program, proc in done:
            report.attempted += 1
            problem = checker(command, program, proc.returncode, proc.stdout)
            if problem:
                report.fail(problem)
            else:
                latencies.append(proc.seconds)
    finally:
        remove_workdir(workdir)
    report.line(f"{len(done)} requests in {wall:.2f}s over {len(programs)} programs")
    report.latency("oneshot", latencies, (50, 80, 90))
    report.calibration(speed)
    report.gate("setup_s", median(setups), "s", speed)
    report.gate("mean_ms", sum(latencies) / len(latencies) * 1000.0, "ms", speed)
    report.gate("throughput_per_s", len(latencies) / wall, "1/s", speed)
    report.gate("peak_rss_mb", rss, "MB")


def trace(seed: int, seconds: float, report: Report) -> None:
    import repro.cli
    from spans import install_layers

    programs = inputs.cli_programs(seed)
    requests = list(itertools.islice(inputs.cli_requests(seed, programs), TRACED_REQUESTS))
    workdir = make_workdir("cli-trace")
    try:
        paths = _write(workdir, programs)
        probes = startup_probes(report)
        command, program = requests[0]
        request_ms = cli_request_ms(_argv(command, paths[program.name]), 5, report)

        def replay(rec, count=len(requests)):
            outputs = []
            for i, (command, program) in enumerate(requests[:count]):
                buffer = io.StringIO()
                span = rec.span("cli.main", rid=f"req-{i}") if rec else contextlib.nullcontext()
                with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()), span:
                    code = repro.cli.main(_argv(command, paths[program.name]))
                outputs.append((command, program, code, buffer.getvalue()))
            return outputs

        def install(rec):
            install_layers(rec)
            rec.patch_attr(repro.cli, "json", rec.json_shim())

        traced = TracedPass()
        plain, outputs = traced.run(replay, install, warmup=lambda: replay(None, 5))
    finally:
        remove_workdir(workdir)
    checker = _Checker()
    for (command, program, code, stdout), (_, _, code0, stdout0) in zip(outputs, plain):
        report.attempted += 1
        problem = checker(command, program, code, stdout)
        if problem is None and _normalised(command, stdout) != _normalised(command, stdout0):
            problem = f"{command} {program.name}: traced output differs from plain"
        if problem:
            report.fail(problem)
    fallbacks = sum(
        1 for command, program, code, stdout in outputs
        if command == "lint" and json.loads(stdout)["files"][0]["engine"] == "standard"
    )
    report_layers(report, traced, probes, request_ms, {"cfa.fallback_jobs": fallbacks})


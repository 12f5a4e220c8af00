"""daemon-session: one editor connection on ``repro daemon`` plus an
open-loop ``status`` poller.

The editor loads a seeded project (the cubic family, a few hundred
bindings) and then runs a closed-loop edit stream that lands all four
delta modes (splice, delta, append, replay). Each edit is followed by a
query, every fifth edit by a lint, every cycle by an analyze. A second
connection polls ``status`` at a fixed rate; each poll is timed from the
moment it was due, so time the event loop spends blocked shows.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import subprocess
import threading
import time
from typing import Dict, List, Optional

import inputs
import oracle
from common import (
    ROOT,
    Report,
    Speed,
    children_peak_rss_mb,
    make_workdir,
    median,
    percentile,
    program_env,
    remove_workdir,
    repro_argv,
)
from layers import TracedPass, report_layers, startup_probes

PROJECT = "bench"
SETUPS = 5
STATUS_HZ = 60.0
#: Check warm-equals-cold and lint-equals-twin at every this many cycles.
CHECK_EVERY_CYCLES = 3
#: Cycles of the edit stream replayed by the traced run.
TRACED_CYCLES = 2
MODES = ("splice", "delta", "append", "replay")


class Daemon:
    """A ``repro daemon start`` child process on a Unix socket."""

    def __init__(self, workdir: str, tag: str) -> None:
        # Relative to the checkout root (the process's working
        # directory) to stay inside the socket path length limit.
        self.socket = os.path.relpath(os.path.join(workdir, f"{tag}.sock"), ROOT)
        self.log = open(os.path.join(workdir, f"{tag}.log"), "wb")
        self.proc = subprocess.Popen(
            repro_argv("daemon", "start", "--socket", self.socket),
            cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT,
        )

    def connect(self, timeout: float = 60.0):
        from repro.daemon import DaemonClient

        deadline = time.perf_counter() + timeout
        while True:
            try:
                return DaemonClient(socket_path=self.socket, timeout=60.0)
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)

    def stop(self, client=None) -> None:
        try:
            if client is not None:
                client.shutdown()
                client.close()
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self.log.close()


def _load(client, initial) -> None:
    for name, source in initial:
        client.define(PROJECT, name, source)


class Poller:
    """Open-loop ``status`` requests at a fixed rate, pipelined on their
    own connection: a sender thread writes each request when it is due,
    whether or not earlier ones were answered, and a reader thread times
    each response from the moment its request was due."""

    def __init__(self, daemon: Daemon) -> None:
        import socket

        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(daemon.socket)
        self.stream = self.sock.makefile("rwb")
        self.stopping = threading.Event()
        self.due: Dict[int, float] = {}
        self.sent = 0
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.errors: List[str] = []
        self._threads = [
            threading.Thread(target=self._send, daemon=True),
            threading.Thread(target=self._read, daemon=True),
        ]

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def _send(self) -> None:
        from repro.daemon import protocol

        start = time.perf_counter()
        k = 0
        while not self.stopping.is_set():
            due = start + k / STATUS_HZ
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            self.due[k] = due
            line = json.dumps(protocol.request_record(k, "status")) + "\n"
            self.lateness.append(time.perf_counter() - due)
            k += 1
            self.sent = k
            try:
                self.stream.write(line.encode("utf-8"))
                self.stream.flush()
            except OSError as error:
                self.errors.append(f"status send: {error}")
                return

    def _read(self) -> None:
        while True:
            line = self.stream.readline()
            if not line:
                return
            done = time.perf_counter()
            response = json.loads(line)
            if response.get("status") != "ok" or "projects" not in (response.get("result") or {}):
                self.errors.append(f"status: {response.get('error')}")
            self.latencies.append(done - self.due[response["id"]])

    def finish(self) -> None:
        """Stop sending, then half-close: the daemon answers what is
        in flight and closes, which ends the reader."""
        import socket

        self.stopping.set()
        self._threads[0].join(timeout=60)
        self.sock.shutdown(socket.SHUT_WR)
        self._threads[1].join(timeout=60)
        self.stream.close()
        self.sock.close()


def _send(client, op) -> Dict[str, object]:
    if op.verb == "define":
        return client.define(PROJECT, op.name, op.source)
    if op.verb == "undefine":
        return client.undefine(PROJECT, op.name)
    if op.verb == "query":
        return client.query_name(PROJECT, op.name)
    if op.verb == "lint":
        return client.lint(PROJECT)
    return client.analyze(PROJECT)


def _shape(op, result, definitions: int) -> Optional[str]:
    """Why a response is malformed or inconsistent, or None."""
    if op.verb in ("define", "undefine"):
        if result.get("mode") not in MODES:
            return f"{op.verb} {op.name}: mode {result.get('mode')!r}"
        if result.get("definitions") != definitions:
            return f"{op.verb} {op.name}: {result.get('definitions')} definitions, expected {definitions}"
        return None
    if op.verb == "query":
        labels = result.get("labels")
        if result.get("name") != op.name or not isinstance(labels, list) or not labels:
            return f"query {op.name}: {result}"
        return None
    if op.verb == "lint":
        if result.get("engine") != "subtransitive" or not isinstance(result.get("findings"), list):
            return "lint: malformed section"
        return None
    envelope = result.get("envelope") or {}
    if envelope.get("schema") != "repro.result/1":
        return "analyze: no repro.result/1 envelope"
    return None


def _session(client, poller, project, definitions, seconds, report, speed):
    """The measured closed-loop edit stream, with the poller running."""
    samples: Dict[str, List[float]] = {v: [] for v in ("edit", "query", "lint", "analyze")}
    modes = {m: 0 for m in MODES}
    checks = []
    stream = project.stream()
    unmeasured = 0.0
    speed.seconds = 0.0
    poller.start()
    start = time.perf_counter()
    try:
        while time.perf_counter() - start - speed.seconds < seconds:
            op = next(stream)
            if op.verb in ("lint", "analyze"):
                speed.sample(1)
            definitions += {"define": op.expect == "append", "undefine": -1}.get(op.verb, 0)
            report.attempted += 1
            sent = time.perf_counter()
            try:
                result = _send(client, op)
            except Exception as error:
                report.fail(f"{op.verb} {op.name}: {error}")
                continue
            elapsed = time.perf_counter() - sent
            problem = _shape(op, result, definitions)
            if problem:
                report.fail(problem)
                continue
            kind = "edit" if op.verb in ("define", "undefine") else op.verb
            samples[kind].append(elapsed)
            if kind == "edit":
                modes[result["mode"]] += 1
            if op.verb == "analyze" and op.cycle % CHECK_EVERY_CYCLES == 0:
                # Untimed: the lint and source the checks compare with.
                pause = time.perf_counter()
                checks.append((result["envelope"], client.lint(PROJECT),
                               client.source(PROJECT)["source"]))
                unmeasured += time.perf_counter() - pause
        wall = time.perf_counter() - start - unmeasured - speed.seconds
    finally:
        poller.finish()
    return samples, modes, checks, wall


def run(seed: int, seconds: float, report: Report) -> None:
    project = inputs.DaemonProject(seed)
    initial = project.initial()
    workdir = make_workdir("daemon")
    try:
        speed = Speed()
        setups = []
        for i in range(SETUPS):
            speed.sample(2)
            start = time.perf_counter()
            daemon = Daemon(workdir, f"d{i}")
            client = daemon.connect()
            _load(client, initial)
            setups.append(time.perf_counter() - start)
            report.attempted += 1
            if i < SETUPS - 1:
                daemon.stop(client)
        try:
            poller = Poller(daemon)
            samples, modes, checks, wall = _session(
                client, poller, project, len(initial), seconds, report, speed
            )
        finally:
            daemon.stop(client)
        rss = children_peak_rss_mb()
    finally:
        remove_workdir(workdir)
    for envelope, lint, source in checks:
        report.attempted += 2
        for problem in (oracle.warm_equals_cold(source, envelope),
                        oracle.lint_findings(source, lint["findings"])):
            if problem:
                report.fail(problem)
    report.attempted += poller.sent
    for error in poller.errors:
        report.fail(error)
    missing = poller.sent - len(poller.latencies) - len(poller.errors)
    if missing > 0:
        report.failed += missing - 1
        report.fail(f"{missing} status polls never answered")
    for mode, count in modes.items():
        report.attempted += 1
        report.check(count > 0, f"delta mode {mode} never landed")
    edits = len(samples["edit"])
    report.line(
        f"{edits} edits in {wall:.2f}s, modes {modes}, "
        f"{len(checks)} points checked warm-equals-cold"
    )
    report.latency("edit", samples["edit"], (50, 80, 90))
    report.latency("query", samples["query"], (50, 90))
    report.latency("lint", samples["lint"], (50, 90))
    report.latency("analyze", samples["analyze"], (50,))
    report.latency("status", poller.latencies, (50, 99))
    if poller.lateness:
        report.value("status_gen_late_ms", median(poller.lateness) * 1000.0, "ms",
                     f"median generator lateness, max {max(poller.lateness) * 1000.0:.1f} ms")
    report.calibration(speed)
    report.gate("setup_s", median(setups), "s", speed)
    report.gate("mean_ms", sum(samples["edit"]) / len(samples["edit"]) * 1000.0, "ms", speed)
    report.gate("throughput_per_s", edits / wall, "1/s", speed)
    report.gate("peak_rss_mb", rss, "MB")


# -- traced pass --------------------------------------------------------------------


def _request_line(i: int, op) -> bytes:
    from repro.daemon import protocol

    fields = {"project": PROJECT}
    if op.verb in ("define", "undefine", "query"):
        fields["name"] = op.name
    if op.verb == "define":
        fields["source"] = op.source
    record = protocol.request_record(i, op.verb, request_id=f"{op.verb}-{i}", **fields)
    return (json.dumps(record) + "\n").encode("utf-8")


def _edit_seconds(client):
    """(total seconds, count) of define/undefine requests as the daemon
    timed them."""
    histograms = client.status()["metrics"].get("histograms", {})
    total = count = 0
    for verb in ("define", "undefine"):
        entry = histograms.get(f"daemon.latency.{verb}") or {}
        total += entry.get("sum", 0.0)
        count += entry.get("count", 0)
    return total, count


def trace(seed: int, seconds: float, report: Report) -> None:
    from repro.daemon import ProjectAnalysis, protocol
    from repro.daemon.server import DaemonServer
    from spans import _count_growth, _graph_size, install_layers

    initial, ops = inputs.daemon_stream_prefix(seed, TRACED_CYCLES)
    probes = startup_probes(report)
    workdir = make_workdir("daemon-trace")
    try:
        start = time.perf_counter()
        daemon = Daemon(workdir, "t")
        client = daemon.connect()
        ready_ms = (time.perf_counter() - start) * 1000.0
        _load(client, initial)
        before = _edit_seconds(client)
        poller = Poller(daemon)
        poller.start()
        rtts = []
        try:
            for op in ops:
                sent = time.perf_counter()
                _send(client, op)
                rtts.append(time.perf_counter() - sent)
            after = _edit_seconds(client)
        finally:
            poller.finish()
            daemon.stop(client)
        # The daemon's own per-request dispatch time, from its latency
        # histograms: what the round trip costs beyond it is transport.
        server_edit_s = (after[0] - before[0]) / (after[1] - before[1])

        traced = TracedPass()

        def replay(rec):
            server = DaemonServer(socket_path=os.path.join(workdir, "unused.sock"))

            async def drive():
                if rec is not None:
                    rec.paused = True
                for i, (name, source) in enumerate(initial):
                    await server.dispatch_line(_request_line(i, inputs.Op("define", name, source)))
                if rec is not None:
                    rec.paused = False
                traced.mark()
                out = []
                for i, op in enumerate(ops):
                    line = _request_line(i, op)
                    sent = time.perf_counter()
                    request = rec.span("daemon.request", rid=f"{op.verb}-{i}") if rec else contextlib.nullcontext()
                    with request:
                        response = await server.dispatch_line(line)
                        # The transport's framing, as the server writes it.
                        with rec.span("export.json") if rec else contextlib.nullcontext():
                            protocol.to_jsonl([response])
                    out.append((response["status"], response["result"], time.perf_counter() - sent))
                return out

            return asyncio.run(drive())

        def install(rec):
            install_layers(rec)

            def count_mode(state, args, kwargs, result):
                rec.add(f"daemon.delta.mode.{result['mode']}")
                rec.add("daemon.delta.retracted_edges", result["retracted_edges"])
                rec.add("daemon.delta.rederived_edges", result["rederived_edges"])

            for method in ("define", "undefine"):
                rec.patch_method(ProjectAnalysis, method, "daemon.delta", after=count_mode)
            # The delta engine builds a definition's subtree through the
            # LC' engine's internals: charge that to the core layer.
            rec.patch_method(
                ProjectAnalysis, "_build_subtree", "core.lc",
                before=lambda a, k: _graph_size((a[0].engine,), k),
                after=lambda state, a, k, r: _count_growth(rec, "core.build.nodes", state, a[0].engine),
            )

        plain, outputs = traced.run(replay, install)
    finally:
        remove_workdir(workdir)
    for op, (status, result, _), (status0, result0, _) in zip(ops, outputs, plain):
        report.attempted += 1
        if status != "ok" or (status, result) != (status0, result0):
            report.fail(f"{op.verb} {op.name}: traced response differs from plain ({status})")
    counts = traced.rec.counts
    edits = sum(counts.get(f"daemon.delta.mode.{m}", 0) for m in MODES)
    for mode in MODES:
        report.attempted += 1
        report.check(counts.get(f"daemon.delta.mode.{mode}", 0) > 0, f"delta mode {mode} never landed")
    edit_rtts = [rtt for op, rtt in zip(ops, rtts) if op.verb in ("define", "undefine")]
    extra = {
        "daemon.delta.fast_path_ratio": counts.get("daemon.delta.mode.splice", 0) / edits,
        "daemon.server.overhead_ms": (
            sum(edit_rtts) / len(edit_rtts) - server_edit_s
        ) * 1000.0,
        "daemon.status.gen_late_ms": median(poller.lateness) * 1000.0,
    }
    for name in MODES:
        key = f"daemon.delta.mode.{name}"
        extra[key] = counts.get(key, 0)
    for key in ("daemon.delta.retracted_edges", "daemon.delta.rederived_edges"):
        extra[key] = counts.get(key, 0)
    report.line(
        f"real daemon over the same {len(ops)} requests: status p99 "
        f"{percentile(poller.latencies, 99) * 1000.0:.1f} ms (n={len(poller.latencies)})"
    )
    report_layers(report, traced, probes, ready_ms, extra)

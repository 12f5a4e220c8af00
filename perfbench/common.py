"""Shared plumbing for the benchmark: paths, processes, statistics,
provenance and the result line.

Everything here runs from the checkout root. The program under test is
imported from ``src/`` (in-process layers, oracles) or started as
``python -m repro`` with ``PYTHONPATH=src`` (the user surfaces).
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space for generated inputs, caches and sockets; removed at
#: the end of every run and ignored by git.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Where traced runs write their spans (JSONL, one file per run).
SPANS_DIR = os.path.join(ROOT, ".perfbench_spans")


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program to measure)."""


def require_checkout() -> None:
    """Fail fast when the program's sources are not beside the
    benchmark (e.g. a directory holding only the benchmark files)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no program sources under {SRC!r}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_env() -> Dict[str, str]:
    """Environment for ``python -m repro`` child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


def make_workdir(tag: str) -> str:
    path = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only succeeds once every run is done
    except OSError:
        pass


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


class Proc:
    """One finished child process: wall time, exit code, output."""

    __slots__ = ("seconds", "returncode", "stdout", "stderr")

    def __init__(self, seconds, returncode, stdout, stderr):
        self.seconds = seconds
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr


def run_proc(argv: Sequence[str], timeout: float = 120.0) -> Proc:
    """Run ``argv`` from the checkout root; time it from spawn to exit."""
    start = time.perf_counter()
    done = subprocess.run(
        list(argv),
        cwd=ROOT,
        env=program_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=timeout,
    )
    return Proc(
        time.perf_counter() - start,
        done.returncode,
        done.stdout.decode("utf-8", "replace"),
        done.stderr.decode("utf-8", "replace"),
    )


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest finished child process tree
    (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- machine speed ------------------------------------------------------------

#: What one calibration sample takes on the reference machine. Gated
#: times are reported at this reference speed (see :class:`Speed`).
CALIBRATION_REF_S = 0.003


def _calibration_work() -> int:
    """A fixed pure-Python loop (calls, arithmetic, dict and list
    traffic) that no change to the program can affect."""
    table: Dict[int, int] = {}
    items: List[int] = []
    total = 0
    for i in range(12000):
        total += (i * 7) % 13
        table[i & 255] = total
        items.append(table.get((i * 3) & 255, 0))
        if len(items) > 64:
            items.clear()
    return total


class Speed:
    """Tracks how fast this machine runs while a workload is measured.

    Shared machines run the same code up to 75% slower while a
    neighbour is busy, switching many times a second, and the share of
    slow time drifts over minutes: raw medians move 10-20% between runs.
    Workloads call :meth:`sample` between measured requests, while the
    program is idle (a sampler running beside the program would time
    the program's own load instead). Gated times are divided by
    ``factor`` (mean sample time over the reference), so they read as
    times at a fixed reference speed; raw figures are printed beside
    them."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Seconds spent sampling, to leave out of measured windows.
        self.seconds = 0.0

    def sample(self, count: int) -> None:
        """Take ``count`` rounds of one sample on each CPU this process
        may use (the CPUs' speeds drift independently)."""
        start = time.perf_counter()
        allowed = os.sched_getaffinity(0)
        try:
            for _ in range(count):
                for cpu in sorted(allowed):
                    os.sched_setaffinity(0, {cpu})
                    t = time.perf_counter()
                    _calibration_work()
                    self.samples.append(time.perf_counter() - t)
        finally:
            os.sched_setaffinity(0, allowed)
        self.seconds += time.perf_counter() - start

    @property
    def factor(self) -> float:
        return sum(self.samples) / len(self.samples) / CALIBRATION_REF_S


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p`` percentile."""
    return count - max(1, math.ceil(p / 100.0 * count))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


# -- reporting ----------------------------------------------------------------


class Report:
    """Collects one run's metrics, human lines and failure counts."""

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def line(self, text: str) -> None:
        print(f"[{self.workload}] {text}", flush=True)

    def latency(
        self, name: str, values: Sequence[float], percentiles: Iterable[int]
    ) -> Dict[int, Optional[float]]:
        """Print ``name`` percentiles in ms with their sample counts;
        a percentile with fewer than ten samples beyond it is printed
        as unresolved and returned as ``None``."""
        out: Dict[int, Optional[float]] = {}
        n = len(values)
        for p in percentiles:
            label = f"{name}_p{p}_ms"
            if n and beyond(n, p) >= 10:
                out[p] = percentile(values, p) * 1000.0
                self.line(
                    f"{label:<28} {out[p]:10.3f} ms   "
                    f"(n={n}, {beyond(n, p)} beyond)"
                )
            else:
                out[p] = None
                self.line(
                    f"{label:<28} {'unresolved':>10}      "
                    f"(n={n}, needs >= 10 beyond)"
                )
        return out

    def gate(self, name: str, raw: float, unit: str, speed: Optional["Speed"] = None) -> None:
        """Record a gated end-to-end metric: with ``speed``, times and
        rates at the reference machine speed; otherwise as measured."""
        value = raw
        if speed is not None and unit in ("s", "ms"):
            value = raw / speed.factor
        elif speed is not None and unit == "1/s":
            value = raw * speed.factor
        self.value(name, value, unit, f"raw {raw:.4f}" if value != raw else "as measured")
        self.put(name, value, unit)

    def calibration(self, speed: "Speed") -> None:
        self.line(
            f"times and rates below are at reference speed: calibration mean "
            f"{speed.factor * CALIBRATION_REF_S * 1000.0:.3f} ms over "
            f"{len(speed.samples)} samples, factor {speed.factor:.4f}"
        )

    def value(self, name: str, value: float, unit: str, note: str = "") -> None:
        suffix = f"   ({note})" if note else ""
        self.line(f"{name:<28} {value:10.4f} {unit}{suffix}")

    def finish(self) -> Dict[str, object]:
        ratio = self.failed / self.attempted if self.attempted else 1.0
        self.value("failed_ratio", ratio, "failed/attempted",
                   f"{self.failed} of {self.attempted}")
        for failure in self.failures:
            self.line(f"FAILED: {failure}")
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def git_commit() -> str:
    head = os.path.join(ROOT, ".git")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    return done.stdout.decode().strip() or "unknown"


def provenance() -> Dict[str, object]:
    """Where the numbers come from, printed with every run so figures
    from different machines are never compared silently."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 0
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": cpus,
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "git_commit": git_commit(),
        "gc_thresholds": list(gc.get_threshold()),
        "platform": platform.platform(),
    }


def print_result(result: Dict[str, object]) -> None:
    """The machine-readable result: always the last stdout line."""
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)

"""Self-test of the benchmark's count metrics and seeding.

    python3 perfbench/selftest.py [--seed 7] [--fresh-seed 90001] [--seconds 8]

1. Runs every workload's traced pass twice with the same seed and
   requires identical count metrics: machine-independent work counters
   are the hard regression signal, so they must not depend on timing.
2. Runs every workload untraced on a seed not used while the benchmark
   was written and requires ``failed_ratio`` 0 (which also shows that
   each workload takes ``--seed``).
3. Requires the daemon stream to land all four delta modes.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, require_checkout  # noqa: E402

require_checkout()

from layers import PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402

#: Deterministic per-layer metrics: counts and ratios of counts.
COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER
    if unit in ("count", "bytes", "hits/lookups", "splices/edits")
    and name != "runtime.gc.collections"
)


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["returncode"] = done.returncode
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fresh-seed", type=int, default=90001)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    problems = []
    for workload in WORKLOADS:
        first, second = (_run(workload, args.seed, args.seconds, 1) for _ in range(2))
        for result in (first, second):
            if result["returncode"] != 0 or not result.get("correct"):
                problems.append(f"{workload} traced run failed: {result.get('failed')} failures")
        for name in COUNT_METRICS:
            a = first.get("metrics", {}).get(name, {}).get("value")
            b = second.get("metrics", {}).get(name, {}).get("value")
            status = "same" if a == b and a is not None else "DIFFERS"
            print(f"{workload:15} {name:30} {a!s:>12} {b!s:>12}  {status}")
            if status != "same":
                problems.append(f"{workload} {name}: {a} != {b}")
        if workload == "daemon-session":
            for mode in ("splice", "delta", "append", "replay"):
                value = first.get("metrics", {}).get(f"daemon.delta.mode.{mode}", {}).get("value")
                if not value:
                    problems.append(f"daemon stream never landed mode {mode}")
        fresh = _run(workload, args.fresh_seed, args.seconds, 0)
        ratio = fresh.get("failed", 1) / max(fresh.get("attempted", 0), 1)
        print(f"{workload:15} seed {args.fresh_seed}: failed_ratio {ratio:.4f} "
              f"({fresh.get('failed')} of {fresh.get('attempted')})")
        if fresh["returncode"] != 0 or ratio != 0:
            problems.append(f"{workload} seed {args.fresh_seed}: failed_ratio {ratio}")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

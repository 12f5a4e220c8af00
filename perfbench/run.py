"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics against the real user
surfaces (``python -m repro``, ``repro batch``, ``repro daemon``);
``--trace 1`` runs the separate traced pass, reports per-layer metrics
and writes its spans to ``.perfbench_spans/``. ``--workload all`` runs
every workload untraced and then traced, for a person reading the
tables. The last line of standard output is always the JSON result
(see README.md); wrong outputs show there as ``"correct": false``. The
exit code is 0 whenever a result was printed, 2 when the checkout has
no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, Report, SetupError, print_result, provenance, require_checkout  # noqa: E402

WORKLOADS = ("cli-oneshot", "batch-corpus", "daemon-session")


def _module(workload: str):
    if workload == "cli-oneshot":
        import wl_cli as module
    elif workload == "batch-corpus":
        import wl_batch as module
    else:
        import wl_daemon as module
    return module


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    report = Report(workload, seed, traced)
    mode = "traced pass (per-layer metrics)" if traced else "untraced (end-to-end metrics)"
    report.line(f"seed {seed}, {seconds:g}s, {mode}")
    start = time.perf_counter()
    module = _module(workload)
    (module.trace if traced else module.run)(seed, seconds, report)
    result = report.finish()
    report.line(f"run took {time.perf_counter() - start:.1f}s")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_checkout()
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # child processes and socket paths are relative to it
    print("provenance: " + json.dumps(provenance(), sort_keys=True), flush=True)
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(result)
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for traced in (False, True):
        for workload in WORKLOADS:
            result = run_one(workload, args.seed, args.seconds, traced)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    print_result(combined)
    return 0


if __name__ == "__main__":
    sys.exit(main())

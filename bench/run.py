"""Benchmark of the allocator, one workload per call.

    python3 bench/run.py --workload det-ith-sweep --seed 1 --seconds 32 --trace 0

Run from the root of the repository.  The workload runs in fresh,
single-threaded Python processes started from ``bench/workloads.py``
with the package imported from ``src/``.  With ``--trace 0`` two
processes only set up and one more repeats the workload's operation for
``--seconds`` seconds; the last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
``wall_s`` (median operation), ``setup_s`` (median set-up of the three
processes) and ``peak_rss_mb``.  With ``--trace 1`` one process
alternates plain and traced operations and the metrics are the layer
numbers.  Results and spans go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("det-ith-sweep", "imp-eps-audit", "wide-m2")
SETUP_PROBES = 2
DEADLINE_S = 170.0

# Pinned thread counts keep the run single-threaded on a shared machine.
# Fixed malloc thresholds stop glibc from handing the solver's temporaries
# back to the kernel and faulting them in again: with the adaptive defaults
# that churn adds 0.1 to 1.4 s of system time to an operation at random.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "channel.sample_s": "s", "channel.states": "count",
    "sinr.pdf_s": "s", "sinr.pdf_calls": "count",
    "optimizer.solve_s": "s", "optimizer.self_s": "s",
    "optimizer.states": "count", "optimizer.iterations": "count",
    "optimizer.states_per_s": "1/s",
    "interference.budget_calls": "count", "interference.budget_s": "s",
    "interference.audit_s": "s",
    "modulation.discretize_s": "s",
    "harness.self_s": "s", "harness.audit_draws": "count",
    "trace.op_s": "s", "trace.overhead_s": "s",
}


class ChildError(RuntimeError):
    pass


def run_child(args: list, deadline: float):
    """Start one workload process; return (set-up seconds, summary or None)."""
    env = dict(os.environ, **CHILD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not ready.strip() or not json.loads(ready).get("ready"):
        raise ChildError("workload process %s exited with %d before its result"
                         % (args, code))
    return setup, (json.loads(rest[-1]) if rest else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ofdma_underlay").is_dir():
        print("bench: no package source under %s" % (ROOT / "src"), file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    common = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_child(common + ["--mode", "setup"], deadline)[0])
        spans = ["--spans-out", str(RESULTS / ("spans-%s.json" % stem))] if args.trace else []
        setup, summary = run_child(common + spans, deadline)
        setups.append(setup)
        if summary is None or (args.trace and "layers" not in summary):
            raise ChildError("workload process gave no summary")
    except ChildError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1

    for line in summary["errors"]:
        print("bench: %s" % line, file=sys.stderr)
    if args.trace:
        values = summary["layers"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        values = {"wall_s": statistics.median(summary["walls"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": summary["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": summary["correct"], "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    detail = dict(result, walls=summary["walls"], setups=setups,
                  errors=summary["errors"])
    with open(RESULTS / ("%s.json" % stem), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

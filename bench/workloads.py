"""One benchmark workload in its own process.

Run by ``run.py``, never by hand: ``python3 bench/workloads.py <workload>
--seed N --seconds S --trace 0|1 --mode setup|run``.  The process builds
the scenario, warms up on a tiny copy of the operation, prints
``{"ready": true}`` and then, in run mode, repeats the operation for the
given seconds and checks each one outside the timed region.  It prints
one JSON summary line at the end.  With ``--trace 1`` the operations
alternate between plain and traced, and the summary carries the layer
numbers of the median traced operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
from tracing import Tracer

from ofdma_underlay import harness, presets
from ofdma_underlay.channel import sample_realizations

MIN_OPS = 3
MIN_TRACED_OPS = 4     # two plain, two traced
WARMUP_STATES = 4


class Workload:
    """A scenario plus one operation: a sweep or a single experiment, run
    on each of a few channel seeds so that the work of one operation does
    not hinge on the luck of a single draw."""

    def __init__(self, name, cfg, states, seeds, axis=None, values=None,
                 required=("harness", "channel", "optimizer", "sinr")):
        self.name, self.states = name, states
        self.cfgs = [cfg.with_updates(rng_seed=seed) for seed in seeds]
        self.axis, self.values = axis, values
        self.required = required    # layers that must fire on this workload

    def run(self, states=None, cfgs=None):
        """One operation; a list of reports per channel seed."""
        states = states or self.states
        if self.axis is None:
            return [[harness.run_experiment(cfg, states)] for cfg in cfgs or self.cfgs]
        return [harness.sweep(cfg, self.axis, self.values, states)
                for cfg in cfgs or self.cfgs]

    def check(self, runs) -> list:
        errors = []
        for cfg, reports in zip(self.cfgs, runs):
            batch = sample_realizations(cfg, range(self.states))
            for value, rep in zip(self.values or [None], reports):
                where = "seed %d%s: " % (cfg.rng_seed, "" if value is None
                                         else " %s=%g" % (self.axis, value))
                point = checks.check_point(batch, rep)
                if rep.constraint_mode == "probabilistic":
                    point += checks.check_probabilistic(batch, rep)
                if rep.rate_mode == "discrete":
                    point += checks.check_discrete(batch, rep)
                errors += [where + e for e in point]
        return errors


def channel_seeds(seed: int, count: int) -> list:
    """The operation's channel seeds: disjoint for distinct run seeds."""
    return [seed * count + g for g in range(count)]


def make_workload(name: str, seed: int) -> Workload:
    if name == "det-ith-sweep":
        return Workload(name, presets.deterministic_benchmark(), 60,
                        channel_seeds(seed, 6), "ith", [1.0, 2.0, 5.0, 10.0, 20.0])
    if name == "imp-eps-audit":
        return Workload(name, presets.imperfect_benchmark(), 500,
                        channel_seeds(seed, 1), "epsilon", [0.05, 0.1, 0.2],
                        required=("harness", "channel", "optimizer", "sinr",
                                  "interference"))
    if name == "wide-m2":
        cfg = presets.deterministic_benchmark(
            num_users=8, num_subcarriers=256, num_primaries=2,
            interference_limit_w=(10.0, 10.0), rate_mode="discrete")
        return Workload(name, cfg, 100, channel_seeds(seed, 10),
                        required=("harness", "channel", "optimizer", "sinr",
                                  "modulation"))
    raise SystemExit("unknown workload %r" % name)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced operation."""
    own = tracer.self_by_name()
    solve = tracer.total("optimizer.solve_dual")
    counts = tracer.counts
    return {
        "channel.sample_s": own["channel.sample_realizations"],
        "channel.states": counts["channel.states"],
        "sinr.pdf_s": own["sinr.pdf"],
        "sinr.pdf_calls": counts["sinr.pdf_calls"],
        "optimizer.solve_s": solve,
        "optimizer.self_s": own["optimizer.solve_dual"],
        "optimizer.states": counts["optimizer.states"],
        "optimizer.iterations": counts["optimizer.iterations"],
        "optimizer.states_per_s": counts["optimizer.states"] / solve,
        "interference.budget_calls": counts["interference.budget_calls"],
        "interference.budget_s": own["interference.surrogate_budget"],
        "interference.audit_s": own["interference.audit_probabilistic"],
        "modulation.discretize_s": own["modulation.discretize_rate"],
        "harness.self_s": own["harness.sweep"] + own["harness.run_experiment"],
        "harness.audit_draws": counts["harness.audit_draws"],
        "trace.op_s": tracer.total(),
    }


SELF_TIMES = ("harness.self_s", "channel.sample_s", "optimizer.self_s",
              "sinr.pdf_s", "interference.budget_s", "interference.audit_s",
              "modulation.discretize_s")


def trace_errors(tracer: Tracer, workload: Workload, layers: dict) -> list:
    errors = []
    entered = tracer.layers_entered()
    for layer in workload.required:
        if layer not in entered:
            errors.append("no wrapper of layer %r fired" % layer)
    total = sum(layers[name] for name in SELF_TIMES)
    if abs(total - layers["trace.op_s"]) > 1e-9 * layers["trace.op_s"] + 1e-12:
        errors.append("layer self times add to %.9f s, the operation took %.9f s"
                      % (total, layers["trace.op_s"]))
    return errors


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed)
    workload.run(WARMUP_STATES, workload.cfgs[:1])
    emit({"ready": True})
    if args.mode == "setup":
        return 0

    tracer = Tracer()
    walls, traced, errors, digests = [], [], [], set()
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        traced_op = bool(args.trace) and attempted % 2 == 1
        if traced_op:
            tracer.reset()
            tracer.install()
        attempted += 1
        op_errors = []
        reports = None
        t0 = time.perf_counter()
        try:
            reports = workload.run()
        except Exception as exc:     # a failing operation is counted, not fatal
            op_errors.append("raised %s: %s" % (type(exc).__name__, exc))
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        if reports is not None:
            wrong = workload.check(reports)
            digests.add(checks.digest([rep for run in reports for rep in run]))
            if traced_op:
                layers = layer_metrics(tracer)
                wrong += trace_errors(tracer, workload, layers)
                traced.append((wall, layers, list(tracer.spans)))
            correct = correct and not wrong
            op_errors += wrong
        if not traced_op:
            walls.append(wall)
        if op_errors:
            failed += 1
            errors += ["op %d: %s" % (attempted, e) for e in op_errors]
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls + [t[0] for t in traced])
        enough = attempted >= (MIN_TRACED_OPS if args.trace else MIN_OPS)
        if enough and elapsed + 0.5 * typical > args.seconds:
            break

    if len(digests) > 1:
        errors.append("repeated operations gave %d different results" % len(digests))
    summary = {
        "attempted": attempted, "failed": failed, "errors": errors,
        "correct": correct and len(digests) <= 1,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace and traced:
        traced.sort(key=lambda t: t[0])
        wall, layers, spans = traced[(len(traced) - 1) // 2]
        layers["trace.overhead_s"] = wall - statistics.median(walls)
        summary["layers"] = layers
        if args.spans_out is not None:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"workload": workload.name, "seed": args.seed,
                           "spans": [dict(zip(("name", "start", "end", "parent"), s))
                                     for s in spans]}, fh)
    emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

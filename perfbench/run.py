#!/usr/bin/env python3
"""regfree benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  [...same options]

One workload per process, single-threaded, calling the library directly.
Every instance of the workload's fixed seed range is built and
check_invariants'ed in set-up; the timed phase then runs whole passes over
the range, in an order drawn from --seed, until about --seconds have gone.
Every output is checked against perfbench/expected/, recorded at the
parent commit by record.py.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half the time
untraced, then one traced set-up and one traced pass with wrappers around
the library's public functions, and prints the per-layer metrics (totals
over that pass) with the tracing overhead; the spans are written to
.bench_out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every output checked out.  `--workload all` runs the four workloads,
each in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import env

SETUP_REPEATS = 5
OUT_DIR = env.ROOT / ".bench_out"
WORKLOAD_NAMES = ("certify-5456", "sweep-340", "chif-exact-42", "chif-lb-126")


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile
    that has at least ten samples beyond it.

    Below 21 samples no order statistic at or above the median has ten
    beyond it, so the tail cannot be resolved past the median: the median
    is reported, at percentile 50, with the count beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0, n // 2
    return xs[n - 11], 100.0 * (n - 10) / n, 10


@dataclass
class Phase:
    samples: list[float] = field(default_factory=list)  # per-instance seconds
    attempted: int = 0
    failed: int = 0
    budget_exceeded: int = 0
    passes: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Phase") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.budget_exceeded += other.budget_exceeded
        self.problems += other.problems

    @property
    def instances_per_s(self) -> float:
        return len(self.samples) / sum(self.samples)


def build_all(wl, order) -> dict:
    return {seed: wl.build(seed) for seed in order}


def run_passes(wl, instances: dict, order, expected: dict, target_s: float) -> Phase:
    """Whole passes over the instances until about target_s have gone: a
    further pass starts only if it would end nearer the target than
    stopping now.  Each instance is timed over its library calls only;
    its outputs are checked after the clock stops."""
    import workloads

    phase = Phase()
    start = time.perf_counter()
    while True:
        for seed in order:
            steps, error = [], None
            t0 = time.perf_counter()
            try:
                for step in wl.run(instances[seed], seed):
                    steps.append(step)
            except Exception as exc:  # counted as failed operations
                error = repr(exc)
            phase.samples.append(time.perf_counter() - t0)
            checked = workloads.check_instance(wl, seed, steps, error, expected[seed])
            phase.attempted += checked.attempted
            phase.failed += checked.failed
            phase.budget_exceeded += checked.budget_exceeded
            phase.problems += checked.problems
        phase.passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (2 * phase.passes) >= target_s:
            return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    load1 = os.getloadavg()[0]
    try:
        env.bootstrap()
    except env.MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    try:
        expected = workloads.load_expected(wl)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot use recorded outputs: {exc}", file=sys.stderr)
        return 2
    order = list(wl.seeds)
    random.Random(args.seed).shuffle(order)

    import_runs, setup_runs = [], []
    for _ in range(SETUP_REPEATS):
        import_runs.append(env.import_seconds())
        t0 = time.perf_counter()
        instances = build_all(wl, order)
        setup_runs.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_runs) + statistics.median(setup_runs)

    untraced = run_passes(
        wl, instances, order, expected, args.seconds / 2 if args.trace else args.seconds
    )
    del instances
    total = Phase()
    total.add(untraced)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": env.provenance(load1),
        "ladder": list(wl.ladder),
        "seed_range": [wl.seeds.start, wl.seeds.stop],
        "order": order,
        "budget": wl.budget,
        "import_runs_s": import_runs,
        "setup_runs_s": setup_runs,
        "passes": untraced.passes,
        "instances": len(untraced.samples),
    }
    spans_out = None
    if args.trace:
        tracer = spans.Tracer()
        with spans.installed(tracer):
            with tracer.span("bench.setup"):
                instances = build_all(wl, order)
            with tracer.span("bench.run"):
                traced = run_passes(wl, instances, order, expected, 0.0)
        total.add(traced)
        layer = spans.layer_metrics(tracer.spans)
        layer["bench.trace_overhead_frac"] = (
            untraced.instances_per_s / traced.instances_per_s - 1.0
        )
        metrics = {name: _metric(layer[name], unit) for name, unit in spans.LAYER_METRICS}
        detail["traced_instances_per_s"] = traced.instances_per_s
        detail["untraced_instances_per_s"] = untraced.instances_per_s
        spans_out = tracer.spans
    else:
        value, pct, beyond = tail(untraced.samples)
        detail["instance_tail"] = {"percentile": pct, "beyond": beyond}
        metrics = {
            "instances_per_s": _metric(untraced.instances_per_s, "1/s"),
            "instance_p50_s": _metric(statistics.median(untraced.samples), "s"),
            "instance_tail_s": _metric(value, "s"),
            "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
            "setup_s": _metric(setup_s, "s"),
        }
    detail["fail_frac"] = (total.failed + total.budget_exceeded) / total.attempted
    detail["budget_exceeded"] = total.budget_exceeded
    detail["problems"] = total.problems[:20]

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {"detail": detail, "metrics": metrics, "samples_s": untraced.samples}
    if spans_out is not None:
        record["spans"] = spans_out
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record) + "\n")

    for problem in total.problems[:20]:
        print(f"MISMATCH {problem}")
    for name, m in metrics.items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"detail": detail}))
    correct = total.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": total.attempted,
                "failed": total.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another; metrics of the
    combined result line are keyed workload/metric."""
    correct, attempted, failed, metrics, status = True, 0, 0, {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return 2
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

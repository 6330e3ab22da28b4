"""World and campaign benchmark: one command, four workloads.

Run from the repository root::

    python3 worldbench/run.py --workload highway-gf --seed 1 --seconds 20 --trace 0

``--trace 0`` runs ops of the workload one at a time (closed loop, one
client) until ``--seconds`` have passed and prints every end-to-end metric
of BENCHMARK.json.  ``--trace 1`` runs op 0 untraced, then twice under the
span tracer, checks that tracing changed no result, that every expected
layer was hit and that every count repeated, and prints every per-layer
metric.  The last line of standard output is one JSON object; the exit
code is non-zero when an output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
WORKDIR = ROOT / ".bench_work"


def tail_text(samples) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for pct in (99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"p{pct:g} {cut[round(pct * 10) - 1]:.6g}"
    return "no tail percentile (fewer than 20 samples)"


def run_ops(workload, seconds: float):
    """Closed loop: start the next op only after the last one finished."""
    ops, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        attempted += 1
        try:
            op = workload.run_op(attempted - 1)
        except Exception:
            failed += 1
            traceback.print_exc()
            continue
        if op.problems:
            failed += 1
            print("\n".join(op.problems), file=sys.stderr)
        ops.append(op)
    return ops, attempted, failed


def measured(workload, seconds: float, spec: dict) -> dict:
    ops, attempted, failed = run_ops(workload, seconds)
    if not ops:
        raise SystemExit(f"{workload.name}: every op raised; no metric to report")
    metrics = {}
    for metric in spec["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        samples = [v for op in ops for v in op.samples[name]]
        if name == "peak_rss_mb":
            value = max(samples)
            print(f"{name}: peak {value:.6g} {unit}")
        else:
            value = statistics.median(samples)
            print(f"{name}: median {value:.6g} {unit}, {tail_text(samples)}, "
                  f"n={len(samples)}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"ops_failed_frac: {failed / attempted:.6g} ({failed} of {attempted} ops)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(workload, op, totals: dict, overhead: float) -> dict:
    """The per-layer metrics of one traced op."""
    counts, self_s, total_s = totals["counts"], totals["self_s"], totals["total_s"]
    extras = [r.extras for r in op.results]
    frames = sum(e["frames_sent"] for e in extras)
    candidates = sum(round(e["mean_candidates_per_frame"] * e["frames_sent"]) for e in extras)
    delivered = sum(e["frames_delivered"] for e in extras)
    run_s = total_s.get("experiments.service", 0.0)
    values = {
        "sim.events": sum(e["events_fired"] for e in extras),
        "radio.candidates_per_frame": candidates / frames if frames else 0.0,
        "radio.rx_per_candidate": delivered / candidates if candidates else 0.0,
        "core.attacks.replays": sum(e.get("replays_sent", 0.0) for e in extras),
        "sim.checkpoint.save_s": self_s.get("sim.checkpoint", 0.0),
        "experiments.store.put_s": self_s.get("experiments.store.put", 0.0),
        "experiments.store.get_s": self_s.get("experiments.store.get", 0.0),
        "experiments.service.run_s": run_s,
        "experiments.service.idle_frac": (
            1.0 - run_s / (workload.workers * op.cold_s) if op.cold_s else 0.0
        ),
        "trace.overhead_frac": overhead,
    }
    for name in counts:
        values[name] = counts[name]
    for group, seconds in self_s.items():
        values.setdefault(f"{group}.self_s", seconds)
    return values


def traced(workload, spec: dict) -> dict:
    from tracer import TraceError, Tracer

    tracer = Tracer(workload.workdir / "spool")
    start = time.perf_counter()
    reference = workload.run_op(0)
    untraced_s = time.perf_counter() - start
    workload.untimed = tracer.paused
    runs = []
    tracer.install()
    try:
        for repeat in (1, 2):
            tracer.op = repeat
            start = time.perf_counter()
            op = workload.run_op(0)
            wall = time.perf_counter() - start
            tracer.merge_spool()
            runs.append((op, tracer.take_totals(), wall))
    finally:
        tracer.uninstall()
        trace_path = WORKDIR / "traces" / f"{workload.name}.npz"
        tracer.save(trace_path, seed=workload.seed)
        print(f"{tracer.n_spans} spans written to {trace_path.relative_to(ROOT)}")

    from workloads import fingerprint

    (op, totals, wall), (op2, totals2, _) = runs
    if [fingerprint(r) for r in reference.results] != [fingerprint(r) for r in op.results]:
        raise TraceError("tracing changed a RunResult: the tracer is not passive")
    missing = [label for label in workload.expected_calls if not totals["calls"].get(label)]
    if missing:
        raise TraceError(f"{workload.name}: no call recorded for {missing}; "
                         "a wrapper was bypassed or the layer was skipped")
    first = layer_metrics(workload, op, totals, wall / untraced_s - 1.0)
    second = layer_metrics(workload, op2, totals2, 0.0)
    unit_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
    repeat_names = [n for n, u in unit_of.items() if u not in ("s", "ratio")]
    differ = {n: (first.get(n, 0), second.get(n, 0)) for n in repeat_names
              if first.get(n, 0) != second.get(n, 0)}
    if differ:
        raise TraceError(f"per-layer counts differ between two traced runs: {differ}")
    nonzero = {n: first[n] for n in workload.zero_counts if first.get(n, 0)}
    if nonzero:
        raise TraceError(f"{workload.name} bypasses these layers, yet: {nonzero}")

    metrics = {}
    for name, unit in unit_of.items():
        metrics[name] = {"value": first.get(name, 0), "unit": unit}
        print(f"{name}: {metrics[name]['value']:.6g} {unit}")
    ops = (reference, op, op2)
    failed = sum(1 for o in ops if o.problems)
    for o in ops:
        if o.problems:
            print("\n".join(o.problems), file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT}: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    scratch = WORKDIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    try:
        if args.trace:
            record = traced(workload, spec)
        else:
            record = measured(workload, args.seconds, spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Layer-budget report: where each request class spends its time.

    python3 perfbench/layer_budget.py [--workloads serve_read,analytics,ingest_mixed]
                                      [--seed 1] [--seconds 10]

Run it from the repository root. For every workload it makes one traced run
and one untraced run through run.py and prints, per request class, each
layer's calls, median self time, share of the class median and ns per work
unit, plus the explicit `unattributed` remainder (class median minus the
layer medians). Beside it go the daemon's own STATS registry deltas over the
untraced run's measured window (for cross-checking only: its queue_wait span
overlaps decode and evaluate, ROADMAP item 5a) and the tracing overhead, untraced minus traced
throughput_ops. The report is also written to <build dir>/results/layer_budget.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def results_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "results")


def run(workload, seed, seconds, trace):
    """One run.py invocation; returns its result document."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        sys.exit(f"layer_budget.py: {' '.join(command)} failed")
    path = os.path.join(results_dir(),
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


def budget_lines(budget):
    lines = []
    for group, body in budget.items():
        if "median_us" in body:
            lines.append(f"\n### class `{group}`: {body['requests']} requests, "
                         f"median {body['median_us']:.1f} us\n")
        else:
            lines.append(f"\n### `{group}` (outside requests: set-up or "
                         "probes off the request path)\n")
        lines.append("| layer | calls | self us p50 | self us total | share "
                     "| ns/unit |")
        lines.append("|---|---:|---:|---:|---:|---:|")
        for layer in body["layers"]:
            share = layer.get("share")
            lines.append(
                f"| {layer['layer']} | {layer['calls']} | "
                f"{layer['self_us_p50']:.2f} | {layer['self_us_total']:.1f} | "
                f"{'' if share is None else f'{100 * share:.1f}%'} | "
                f"{layer['ns_per_unit']:.2f} |")
        if "unattributed_us" in body:
            lines.append(f"| unattributed | - | {body['unattributed_us']:.2f} "
                         f"| - | {100 * body['unattributed_share']:.1f}% | - |")
    return lines


def registry_delta_lines(before, after):
    if not before or not after:
        return []
    lines = ["\nDaemon STATS registry delta over the untraced run's window "
             "(cross-check only; `server.queue_wait` overlaps):\n",
             "| metric | delta count | delta total us |", "|---|---:|---:|"]
    for name, value in sorted(after.get("counters", {}).items()):
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            lines.append(f"| {name} | {delta} | |")
    for name, hist in sorted(after.get("histograms", {}).items()):
        old = before.get("histograms", {}).get(name, {})
        count = hist["count"] - old.get("count", 0)
        if count:
            total = hist["total_us"] - old.get("total_us", 0)
            lines.append(f"| {name} | {count} | {total} |")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default="serve_read,analytics,ingest_mixed")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()

    out = ["# Layer budget", ""]
    for workload in args.workloads.split(","):
        traced = run(workload, args.seed, args.seconds, 1)
        untraced = run(workload, args.seed, args.seconds, 0)
        fingerprint = traced["fingerprint"]
        out.append(f"\n## {workload} (seed {args.seed}, {args.seconds}s, "
                   f"{fingerprint['cpu_model']}, nproc {fingerprint['nproc']}, "
                   f"{fingerprint['build_type']})")
        out.extend(budget_lines(traced["budget"]))
        untraced_ops = untraced["metrics"]["throughput_ops"]["value"]
        traced_ops = traced["metrics"]["traced_throughput_ops"]["value"]
        out.append(f"\nTracing overhead: untraced throughput_ops "
                   f"{untraced_ops:.1f} - traced {traced_ops:.1f} = "
                   f"{untraced_ops - traced_ops:.1f} ops/s (the traced run is "
                   "a one-thread replay that re-executes every layer).")
        out.append("\nPer-layer metrics of the traced run:\n")
        out.append("| metric | value | unit |")
        out.append("|---|---:|---|")
        for name, metric in sorted(traced["metrics"].items()):
            out.append(f"| {name} | {metric['value']:.6g} | {metric['unit']} |")
        out.extend(registry_delta_lines(untraced.get("stats_registry_before"),
                                        untraced.get("stats_registry_after")))
    text = "\n".join(out) + "\n"
    sys.stdout.write(text)
    with open(os.path.join(results_dir(), "layer_budget.md"), "w") as f:
        f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

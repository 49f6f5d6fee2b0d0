#!/usr/bin/env python3
"""Benchmark regression tracker for colgraph metrics dumps.

Compares two --metrics-out JSON files (the format bench/bench_util.h's
WriteMetricsOut and tools/colgraph_replay emit): a committed baseline
(bench/baselines/BENCH_*.json) against a fresh CI run. Latency histograms
are compared on mean (total_us / count) and approximate p99; counters
(including fetch_stats) on relative growth. Exits nonzero on regression so
the empty BENCH_* trajectory becomes a tracked, enforced time series.

Usage:
  bench_compare.py BASELINE FRESH [options]
  bench_compare.py --self-test

Options:
  --max-latency-ratio=R   flag a histogram whose fresh mean (or p99) exceeds
                          baseline * R (default 1.5 — a 2x regression is
                          always caught)
  --counter-tolerance=T   flag a counter whose fresh value exceeds
                          baseline * (1 + T) (default 0.10)
  --min-count=N           skip histograms with fewer than N samples on
                          either side (default 10: smoke runs are noisy)
  --min-mean-us=M         skip histograms whose baseline mean is below M
                          microseconds (default 50: sub-50us means are
                          dominated by clock and scheduler noise)
  --warn-only             report regressions but exit 0 (first landing of a
                          baseline, or while a box is being requalified)

Counters that *shrink* and histograms that get faster are reported as
improvements, never as failures.
"""

import argparse
import json
import sys


def find_registry(dump):
    """Locates the metrics registry inside a dump, wherever the harness
    put it, plus the flat fetch_stats block when present."""
    root = dump.get("engine_metrics", dump)
    registry = root.get("metrics", root if "counters" in root else {})
    fetch_stats = root.get("fetch_stats", {})
    return registry, fetch_stats


def flatten_counters(dump):
    registry, fetch_stats = find_registry(dump)
    counters = dict(registry.get("counters", {}))
    for name, value in fetch_stats.items():
        counters["fetch_stats." + name] = value
    return counters


def histograms(dump):
    registry, _ = find_registry(dump)
    return registry.get("histograms", {})


def mean_us(hist):
    count = hist.get("count", 0)
    if not count:
        return None
    return hist.get("total_us", 0) / count


def compare(baseline, fresh, opts):
    """Returns (regressions, notes): lists of human-readable lines."""
    regressions = []
    notes = []

    base_hists = histograms(baseline)
    fresh_hists = histograms(fresh)
    for name in sorted(base_hists):
        if name not in fresh_hists:
            notes.append(f"histogram {name}: present in baseline only")
            continue
        b, f = base_hists[name], fresh_hists[name]
        if min(b.get("count", 0), f.get("count", 0)) < opts.min_count:
            continue
        b_mean, f_mean = mean_us(b), mean_us(f)
        if b_mean is None or f_mean is None or b_mean < opts.min_mean_us:
            continue
        if f_mean > b_mean * opts.max_latency_ratio:
            regressions.append(
                f"histogram {name}: mean {b_mean:.1f}us -> {f_mean:.1f}us "
                f"({f_mean / b_mean:.2f}x > {opts.max_latency_ratio}x)"
            )
        elif f_mean * opts.max_latency_ratio < b_mean:
            notes.append(
                f"histogram {name}: improved {b_mean:.1f}us -> {f_mean:.1f}us"
            )
        b_p99, f_p99 = b.get("p99_us"), f.get("p99_us")
        if (
            b_p99 and f_p99
            and b_p99 >= opts.min_mean_us
            and f_p99 > b_p99 * opts.max_latency_ratio
        ):
            regressions.append(
                f"histogram {name}: p99 {b_p99}us -> {f_p99}us "
                f"({f_p99 / b_p99:.2f}x > {opts.max_latency_ratio}x)"
            )

    base_counters = flatten_counters(baseline)
    fresh_counters = flatten_counters(fresh)
    for name in sorted(base_counters):
        if name not in fresh_counters:
            notes.append(f"counter {name}: present in baseline only")
            continue
        b, f = base_counters[name], fresh_counters[name]
        if b == 0:
            if f != 0:
                notes.append(f"counter {name}: 0 -> {f}")
            continue
        if f > b * (1 + opts.counter_tolerance):
            regressions.append(
                f"counter {name}: {b} -> {f} "
                f"(+{100.0 * (f - b) / b:.1f}% > {100 * opts.counter_tolerance:.0f}%)"
            )
        elif f < b * (1 - opts.counter_tolerance):
            notes.append(f"counter {name}: shrank {b} -> {f}")

    return regressions, notes


FETCH_HISTOGRAM = "query.phase.fetch_us"


def fetch_report(baseline, fresh):
    """One line comparing the measure-fetch figures (mean us per fetch and
    fetch calls, plus fetch_stats.values_fetched), reported whatever the
    gate thresholds skip; None when neither dump fetched. The two are not
    divided into ns per value: a bench may reset fetch_stats between its
    sweeps (fig6 does, per budget) while the histogram spans the run."""
    figures = []
    for dump in (baseline, fresh):
        hist = histograms(dump).get(FETCH_HISTOGRAM)
        values = flatten_counters(dump).get("fetch_stats.values_fetched", 0)
        if hist and hist.get("count"):
            figures.append(
                f"{mean_us(hist):.1f}us x {hist['count']} ({values} values)")
        else:
            figures.append(None)
    if figures == [None, None]:
        return None
    return f"fetch: {figures[0] or 'none'} -> {figures[1] or 'none'}"


def make_dump(mean_by_hist, counters, count=100):
    """Builds a CI-format dump for the self-test."""
    return {
        "bench": "selftest",
        "scale": 1.0,
        "threads": 1,
        "engine_metrics": {
            "engine": {"num_records": 10},
            "fetch_stats": dict(counters),
            "metrics": {
                "counters": {"query.graph.count": count},
                "gauges": {},
                "histograms": {
                    name: {
                        "count": count,
                        "total_us": int(mean * count),
                        "max_us": int(mean * 4),
                        "p50_us": int(mean),
                        "p90_us": int(mean * 2),
                        "p99_us": int(mean * 3),
                    }
                    for name, mean in mean_by_hist.items()
                },
            },
        },
    }


def self_test(opts):
    base = make_dump({"query.graph.total_us": 400.0}, {"values_fetched": 1000})

    identical, _ = compare(base, base, opts)
    assert identical == [], f"identical dumps flagged: {identical}"

    doubled = make_dump(
        {"query.graph.total_us": 800.0}, {"values_fetched": 1000}
    )
    regressions, _ = compare(base, doubled, opts)
    assert any(
        "query.graph.total_us" in r and "mean" in r for r in regressions
    ), f"2x latency regression not flagged: {regressions}"

    fetch_blowup = make_dump(
        {"query.graph.total_us": 400.0}, {"values_fetched": 2000}
    )
    regressions, _ = compare(base, fetch_blowup, opts)
    assert any(
        "fetch_stats.values_fetched" in r for r in regressions
    ), f"counter regression not flagged: {regressions}"

    faster = make_dump({"query.graph.total_us": 100.0}, {"values_fetched": 900})
    regressions, notes = compare(base, faster, opts)
    assert regressions == [], f"improvement flagged as regression: {regressions}"
    assert notes, "improvement produced no note"

    line = fetch_report(
        make_dump({FETCH_HISTOGRAM: 20.0}, {"values_fetched": 4000}),
        make_dump({FETCH_HISTOGRAM: 10.0}, {"values_fetched": 4000}),
    )
    assert line == (
        "fetch: 20.0us x 100 (4000 values) -> 10.0us x 100 (4000 values)"
    ), f"fetch report: {line}"
    assert fetch_report(base, base) is None, "fetch report without a fetch"

    noisy = make_dump({"tiny_us": 5.0}, {})
    noisy_double = make_dump({"tiny_us": 10.0}, {})
    regressions, _ = compare(noisy, noisy_double, opts)
    assert regressions == [], f"sub-threshold histogram flagged: {regressions}"

    print("bench_compare.py self-test: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline", nargs="?", help="baseline metrics JSON")
    parser.add_argument("fresh", nargs="?", help="fresh metrics JSON")
    parser.add_argument("--max-latency-ratio", type=float, default=1.5)
    parser.add_argument("--counter-tolerance", type=float, default=0.10)
    parser.add_argument("--min-count", type=int, default=10)
    parser.add_argument("--min-mean-us", type=float, default=50.0)
    parser.add_argument("--warn-only", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()

    if opts.self_test:
        return self_test(opts)
    if not opts.baseline or not opts.fresh:
        parser.error("BASELINE and FRESH are required (or --self-test)")

    with open(opts.baseline) as f:
        baseline = json.load(f)
    with open(opts.fresh) as f:
        fresh = json.load(f)

    regressions, notes = compare(baseline, fresh, opts)
    fetch_line = fetch_report(baseline, fresh)
    if fetch_line is not None:
        print(fetch_line)
    for line in notes:
        print(f"note: {line}")
    for line in regressions:
        print(f"REGRESSION: {line}")
    if not regressions:
        print(
            f"bench_compare: no regressions "
            f"({opts.baseline} vs {opts.fresh})"
        )
        return 0
    if opts.warn_only:
        print(
            f"bench_compare: {len(regressions)} regression(s) found "
            f"(--warn-only: not failing)"
        )
        return 0
    print(f"bench_compare: {len(regressions)} regression(s) found")
    return 1


if __name__ == "__main__":
    sys.exit(main())

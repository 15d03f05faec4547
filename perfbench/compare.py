#!/usr/bin/env python3
"""Compare two sets of benchmark runs metric by metric.

    python3 perfbench/compare.py A.jsonl B.jsonl [--bench BENCHMARK.json]

A and B are result files written by steady.py: one JSON object per line,
{"workload": ..., "result": <run.py's output object>, "raw": {...}}. For
every workload in both sets and every end-to-end metric of BENCHMARK.json
it prints the two medians, B's change in the metric's worse direction,
each set's spread (Q3 - Q1) / median, and B's change computed from the
unscaled ("raw") times. A row fails when

  * a spread exceeds the metric's bound: the metric is too noisy to
    resolve a change of that size (NOISY), or
  * B's median is worse than A's by more than the bound (WORSE).

Run on two sets from one build, every row must pass: that is the
steadiness the benchmark promises. Between two builds, a "worse" far from
"raw worse" on a quiet host means the host-speed scaling did not cancel
out (README, "Host-speed scaling"). Exit status 1 if any row fails.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def noisy(spread, bound):
    """The one NOISY rule of compare.py and steady.py."""
    return spread > bound


def bounds(bench):
    return {m["name"]: m["bound"] for m in bench["end_to_end"]}


def directions(bench):
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def load_runs(path, raw=False):
    """workload -> list of {metric: value}: the reported (scaled) metrics,
    or with raw=True the same from unscaled times (runs without them are
    skipped)."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if raw:
                if "raw" not in rec:
                    continue
                values = rec["raw"]
            else:
                values = {k: v["value"]
                          for k, v in rec["result"]["metrics"].items()}
            runs.setdefault(rec["workload"], []).append(values)
    return runs


def spread_row(values):
    """(median, q1, q3, (q3 - q1) / median) of a metric's run values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def worse_by(med_a, med_b, better):
    """B's relative change from A, positive when B is worse."""
    change = (med_b - med_a) / abs(med_a)
    return change if better == "lower" else -change


def compare(a_runs, b_runs, bench, a_raw=None, b_raw=None):
    """Rows (workload, metric, med_a, med_b, worse, spread_a, spread_b,
    raw_worse, verdict); raw_worse is None without raw values in both sets;
    verdict is "ok", "NOISY" or "WORSE"."""
    limits, better = bounds(bench), directions(bench)
    a_raw, b_raw = a_raw or {}, b_raw or {}
    rows = []
    for name in sorted(set(a_runs) & set(b_runs)):
        for metric, bound in limits.items():
            med_a, _, _, spread_a = spread_row([r[metric] for r in a_runs[name]])
            med_b, _, _, spread_b = spread_row([r[metric] for r in b_runs[name]])
            worse = worse_by(med_a, med_b, better[metric])
            raw_worse = None
            if a_raw.get(name) and b_raw.get(name):
                raw_worse = worse_by(
                    statistics.median(r[metric] for r in a_raw[name]),
                    statistics.median(r[metric] for r in b_raw[name]),
                    better[metric])
            verdict = "ok"
            if noisy(max(spread_a, spread_b), bound):
                verdict = "NOISY"
            elif worse > bound:
                verdict = "WORSE"
            rows.append((name, metric, med_a, med_b, worse, spread_a,
                         spread_b, raw_worse, verdict))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--bench", default=os.path.join(os.path.dirname(HERE),
                                                   "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.bench) as f:
        bench = json.load(f)
    rows = compare(load_runs(args.a), load_runs(args.b), bench,
                   load_runs(args.a, raw=True), load_runs(args.b, raw=True))
    limits = bounds(bench)
    print(f"{'workload':<18} {'metric':<17} {'median A':>12} {'median B':>12} "
          f"{'worse':>7} {'sprd A':>7} {'sprd B':>7} {'bound':>6} "
          f"{'raw worse':>9}  verdict")
    for name, metric, med_a, med_b, worse, sa, sb, raw, verdict in rows:
        raw_text = "-" if raw is None else f"{raw:.2%}"
        print(f"{name:<18} {metric:<17} {med_a:>12.6g} {med_b:>12.6g} "
              f"{worse:>7.2%} {sa:>7.2%} {sb:>7.2%} {limits[metric]:>6.2f} "
              f"{raw_text:>9}  {verdict}")
    return 0 if rows and all(r[-1] == "ok" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())

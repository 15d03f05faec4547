#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's run-to-run spread.

    python3 perfbench/steady.py --runs 10 --out runs.jsonl [--workload W ...]

Each run uses its own seed (--seed-base + run index) through the real
entry point (run.py). Every result is appended to --out as
{"workload", "seed", "result", "raw"}, the input format of compare.py;
"raw" holds the end-to-end metrics from unscaled times (run.py's
"# raw" stamp line). The table gives, per workload and end-to-end metric,
the median, the quartiles (statistics.quantiles(n=4)), the spread
(Q3 - Q1) / median, the metric's bound from BENCHMARK.json, the spread
as a share of the bound, and the spread of the raw values. A spread marked NOISY (compare.noisy) fails the
script.
"""

import argparse
import json
import os
import subprocess
import sys

from compare import bounds, load_runs, noisy, spread_row
from run import RAW_PREFIX

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--workload", action="append", default=None)
    p.add_argument("--out", required=True)
    a = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    for name in workloads:
        for k in range(a.runs):
            seed = a.seed_base + k
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            raw = [json.loads(ln[len(RAW_PREFIX):]) for ln in lines
                   if ln.startswith(RAW_PREFIX)]
            with open(a.out, "a") as f:
                f.write(json.dumps({"workload": name, "seed": seed,
                                    "result": res, "raw": raw[-1]}) + "\n")
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()),
                flush=True)
    runs, raw_runs = load_runs(a.out), load_runs(a.out, raw=True)
    limits = bounds(bench)
    print(f"\n{'workload':<18} {'metric':<17} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6} {'sprd/bnd':>8} "
          f"{'raw sprd':>8}")
    failed = False
    for name in workloads:
        for metric, bound in limits.items():
            values = [r[metric] for r in runs.get(name, [])]
            med, q1, q3, spread = spread_row(values)
            raw_spread = spread_row([r[metric]
                                     for r in raw_runs.get(name, [])])[3]
            flag = ""
            if noisy(spread, bound):
                flag, failed = "  NOISY", True
            print(f"{name:<18} {metric:<17} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>7.2%} {bound:>6.2f} "
                  f"{spread / bound:>8.2f} {raw_spread:>8.2%}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

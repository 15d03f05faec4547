#!/usr/bin/env python3
"""Whole-step MD benchmark of ember (see perfbench/README.md).

    python3 perfbench/run.py --workload snap_serial --seed 1 --seconds 20 --trace 0

Builds perfbench_md from the sources of the checkout it sits in (into
.bench_build/), runs one workload, checks its outputs, and prints one
JSON object as the last line of standard output:

    {"correct": true, "attempted": 71, "failed": 0,
     "metrics": {"atom_steps_per_s": {"value": 2301.6, "unit": "1/s"}, ...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Lines before it stamp the run (CPU model, nproc, ISA, git sha, seed) and
say which percentile step_ms_tail is.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
MODEL = os.path.join(HERE, "model", "carbon_2j8.snap")
BENCH = os.path.join(ROOT, "BENCHMARK.json")
# The workload shapes, one row each; perfbench_md reads the same file.
TABLE = os.path.join(HERE, "workloads.txt")
RUN_TIMEOUT_S = 170

# Stamp line with the end-to-end metrics from unscaled times (steady.py
# keeps them next to the scaled ones).
RAW_PREFIX = "# raw "

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchError(Exception):
    """A refused configuration or a failed build/run."""


def load_workloads(path=TABLE):
    """name -> {column: value} from workloads.txt (integers as int)."""
    with open(path) as f:
        rows = [line.split() for line in f
                if line.strip() and not line.startswith("#")]
    header, table = rows[0], {}
    for row in rows[1:]:
        if len(row) != len(header):
            raise BenchError(f"{path}: bad row {' '.join(row)!r}")
        shape = {}
        for col, v in zip(header[1:], row[1:]):
            try:
                shape[col] = int(v)
            except ValueError:
                shape[col] = v
        table[row[0]] = shape
    return table


def load_bench(path=BENCH):
    with open(path) as f:
        return json.load(f)


def check_name(name):
    if not NAME_RE.match(name):
        raise BenchError(f"bad metric name {name!r}: want [A-Za-z0-9_.-], "
                         "starting with a letter or digit, at most 64")
    return name


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check_fits(workload, cpus):
    """Refuse a workload that would run more threads than the host has."""
    total = workload["ranks"] * workload["threads"]
    if total > cpus:
        raise BenchError(f"{workload['ranks']} ranks x {workload['threads']} "
                         f"threads = {total} exceeds nproc = {cpus}")


def tail(samples):
    """The highest percentile with at least 10 samples beyond it.

    Nearest-rank: the 11th-largest sample, which is percentile
    100 * (n - 10) / n. Returns (value, percentile)."""
    n = len(samples)
    if n < 11:
        raise BenchError(f"{n} step samples: the tail needs at least 11")
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def scaled(times, probes, blocks, ref):
    """Times at the probe's reference speed: each time is multiplied by
    reference / measured seconds of the host probe that ran beside it."""
    if len(times) != len(probes) or not times or blocks <= 0:
        raise BenchError(f"{len(times)} times for {len(probes)} host probes")
    return [t * blocks * ref / p for t, p in zip(times, probes)]


def end_to_end(raw):
    """The end-to-end metrics, and the same from raw (unscaled) times."""
    run = raw["run"]
    if len(run["step_s"]) != run["steps"]:
        raise BenchError(f"{len(run['step_s'])} step stamps for "
                         f"{run['steps']} steps")
    ref = run["probe_ref_block_s"]
    steps = scaled(run["step_s"], run["probe_s"], run["probe_blocks"], ref)
    setups = scaled(run["setup_s"], run["setup_probe_s"],
                    run["setup_probe_blocks"], ref)

    def metrics(steps, setups):
        return {
            "atom_steps_per_s": run["natoms"] * len(steps) / sum(steps),
            "step_ms_p50": 1e3 * statistics.median(steps),
            "step_ms_tail": 1e3 * tail(steps)[0],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    return metrics(steps, setups), metrics(run["step_s"], run["setup_s"])


def result(raw, trace, bench):
    """The benchmark's output object from perfbench_md's record: the
    per_layer (trace) or end_to_end metrics of BENCHMARK.json."""
    run = raw["run"]
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if trace else "end_to_end"]}
    if trace:
        values = run.get("layers", {})
        missing = sorted(set(units) - set(values))
        if missing:
            raise BenchError(f"traced run lacks {missing}")
    else:
        values = end_to_end(raw)[0]
    failed = sum(1 for c in run["checks"] if not c["ok"])
    return {
        "correct": failed == 0,
        "attempted": run["steps"] + len(run["checks"]),
        "failed": failed,
        "metrics": {check_name(k): {"value": float(values[k]), "unit": u}
                    for k, u in units.items()},
    }


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_md",
                    "-j", str(min(4, nproc()))], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench_md")


def run_workload(exe, name, seed, seconds, trace):
    cmd = [exe, TABLE, name, MODEL, RUNS_DIR, str(seed), str(seconds),
           str(int(trace))]
    # Own process group: a hung run is killed with its forked rank children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"perfbench_md ran past {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"perfbench_md exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def stamp(raw, name, seed, trace):
    run, m = raw["run"], raw["run"]["machine"]
    _, pct = tail(run["step_s"])
    lines = [
        f"# perfbench {name} seed={seed} cpu={m['cpu_model']!r} "
        f"nproc={m['nproc']} isa={m['isa']} git={m['git_sha']}",
        f"# natoms={run['natoms']} timed_steps={run['steps']} "
        f"step_ms_tail=p{pct:.1f} (n={len(run['step_s'])}, 10 beyond) "
        f"setups={len(run['setup_s'])}",
    ]
    if not trace:
        ref = run["probe_ref_block_s"]
        speed = statistics.median(run["probe_blocks"] * ref / p
                                  for p in run["probe_s"])
        lines.append(f"# host speed {speed:.4f} of the probe reference")
        lines.append(RAW_PREFIX + json.dumps(end_to_end(raw)[1]))
    for c in run["checks"]:
        lines.append(f"# check {c['name']}: {'ok' if c['ok'] else 'FAILED'} "
                     f"({c['detail']})")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    try:
        workloads = load_workloads()
        if a.workload not in workloads:
            raise BenchError(f"unknown workload {a.workload!r}; "
                             f"have {sorted(workloads)}")
        check_fits(workloads[a.workload], nproc())
        bench = load_bench()
        exe = build()
        raw = run_workload(exe, a.workload, a.seed, a.seconds, a.trace)
        out = result(raw, a.trace, bench)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(stamp(raw, a.workload, a.seed, a.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

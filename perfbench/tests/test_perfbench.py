#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic (no build, no MD run needed).

    python3 perfbench/tests/test_perfbench.py
"""

import json
import os
import random
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402
import run  # noqa: E402

BENCH = run.load_bench()
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}


class TailPercentile(unittest.TestCase):
    def test_eleventh_largest_with_ten_beyond(self):
        for n in (11, 12, 20, 75, 100, 1311):
            samples = list(range(n))
            random.Random(n).shuffle(samples)
            value, pct = run.tail(samples)
            self.assertEqual(sum(1 for s in samples if s > value), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_known_points(self):
        self.assertEqual(run.tail(list(range(100))), (89, 90.0))
        self.assertEqual(run.tail(list(range(20))), (9, 50.0))

    def test_too_few_samples_refused(self):
        with self.assertRaises(run.BenchError):
            run.tail(list(range(10)))


class MetricNames(unittest.TestCase):
    def test_every_metric_name_is_legal(self):
        for name in list(END_TO_END) + list(PER_LAYER):
            self.assertEqual(run.check_name(name), name)

    def test_illegal_names_refused(self):
        for bad in ("", "-lead", ".lead", "has space", "slash/name",
                    "x" * 65, "café", "a:b"):
            with self.assertRaises(run.BenchError, msg=bad):
                run.check_name(bad)


class ThreadBudget(unittest.TestCase):
    def test_over_nproc_refused(self):
        with self.assertRaises(run.BenchError):
            run.check_fits({"ranks": 2, "threads": 2}, 3)
        with self.assertRaises(run.BenchError):
            run.check_fits({"ranks": 5, "threads": 1}, 4)

    def test_every_workload_fits_four_cores(self):
        shapes = run.load_workloads()
        for w in BENCH["workloads"]:
            run.check_fits(shapes[w["name"]], 4)


class WorkloadTable(unittest.TestCase):
    def test_rows_become_typed_shapes(self):
        shape = run.load_workloads()["snap_ranks"]
        self.assertEqual((shape["potential"], shape["transport"],
                          shape["ranks"], shape["threads"]),
                         ("snap", "thread", 2, 2))

    def test_short_row_refused(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt") as f:
            f.write("# comment\nname ranks threads\nw 1 1\nshort 2\n")
            f.flush()
            with self.assertRaises(run.BenchError):
                run.load_workloads(f.name)


def fake_raw(steps=40, trace=False, failed_check=False):
    rng = random.Random(7)
    step_s = [0.2 + 0.01 * rng.random() for _ in range(steps)]
    raw = {"peak_rss_mb": 17.123456789012345, "run": {
        "natoms": 512, "steps": steps, "step_s": step_s,
        "probe_s": [] if trace else [6e-3 * (1 + 0.1 * rng.random())
                                     for _ in step_s],
        "probe_blocks": 0 if trace else 200,
        "setup_s": [0.21, 0.2234567890123, 0.25],
        "setup_probe_s": [0.9e-3, 0.9e-3, 0.9e-3],
        "setup_probe_blocks": 30,
        "probe_ref_block_s": 30e-6,
        "checks": [{"name": "a", "ok": True, "detail": ""},
                   {"name": "b", "ok": not failed_check, "detail": ""}],
        "machine": {"cpu_model": "x", "nproc": 4, "isa": "avx2",
                    "git_sha": "unknown"}}}
    if trace:
        raw["run"]["layers"] = {k: 0.1 + i / 7.0
                                for i, k in enumerate(PER_LAYER)}
    return raw


class HostScaling(unittest.TestCase):
    def test_a_uniformly_slower_host_reads_the_same(self):
        raw = fake_raw()
        slow = json.loads(json.dumps(raw))
        for key in ("step_s", "probe_s", "setup_s", "setup_probe_s"):
            slow["run"][key] = [1.7 * x for x in slow["run"][key]]
        fast, slowed = run.end_to_end(raw)[0], run.end_to_end(slow)[0]
        for name in fast:
            self.assertAlmostEqual(fast[name] / slowed[name], 1.0, places=9)

    def test_scale_is_reference_over_probe(self):
        raw = fake_raw()
        r = raw["run"]
        r["probe_s"] = [2 * r["probe_blocks"] * 30e-6] * len(r["step_s"])
        scaled, unscaled = run.end_to_end(raw)
        self.assertAlmostEqual(scaled["step_ms_p50"],
                               0.5 * unscaled["step_ms_p50"])

    def test_missing_probes_refused(self):
        raw = fake_raw()
        raw["run"]["probe_s"].pop()
        with self.assertRaises(run.BenchError):
            run.end_to_end(raw)


class OutputObject(unittest.TestCase):
    def test_json_round_trip(self):
        for trace in (False, True):
            out = run.result(fake_raw(trace=trace), trace, BENCH)
            back = json.loads(json.dumps(out))
            self.assertEqual(back, out)
            self.assertEqual(set(back), {"correct", "attempted", "failed",
                                         "metrics"})
            want = PER_LAYER if trace else END_TO_END
            self.assertEqual(set(back["metrics"]), set(want))
            for name, m in back["metrics"].items():
                self.assertEqual(set(m), {"value", "unit"})
                self.assertEqual(m["unit"], want[name])

    def test_values_keep_every_digit(self):
        out = run.result(fake_raw(), False, BENCH)
        self.assertEqual(out["metrics"]["peak_rss_mb"]["value"],
                         17.123456789012345)
        # Set-up probes at the reference speed leave the time unscaled.
        self.assertAlmostEqual(out["metrics"]["setup_s"]["value"],
                               0.2234567890123, places=15)

    def test_failed_checks_count_against_attempts(self):
        out = run.result(fake_raw(steps=40, failed_check=True), False, BENCH)
        self.assertEqual((out["correct"], out["attempted"], out["failed"]),
                         (False, 42, 1))

    def test_traced_run_missing_a_layer_refused(self):
        raw = fake_raw(trace=True)
        del raw["run"]["layers"]["io.dump_submit_ms"]
        with self.assertRaises(run.BenchError):
            run.result(raw, True, BENCH)


def run_set(workload, centers, spread, seed, n=10):
    """n fake results scattered uniformly +-spread/2 around centers."""
    rng = random.Random(seed)
    return {workload: [{m: c * (1 + spread * (rng.random() - 0.5))
                        for m, c in centers.items()} for _ in range(n)]}


class Compare(unittest.TestCase):
    BASE = {"atom_steps_per_s": 14000.0, "step_ms_p50": 120.0,
            "step_ms_tail": 131.0, "setup_s": 0.25, "peak_rss_mb": 17.0}

    def verdicts(self, a, b):
        return {r[1]: r[-1] for r in compare.compare(a, b, BENCH)}

    def test_same_code_within_spread_passes(self):
        a = run_set("w", self.BASE, 0.02, 1)
        b = run_set("w", self.BASE, 0.02, 2)
        self.assertEqual(set(self.verdicts(a, b).values()), {"ok"})

    def test_pr11_setup_disagreement_is_caught(self):
        # The rejected earlier attempt at this benchmark: two sets of runs
        # of the same code gave io_dense/setup_s medians of 2.95 and
        # 3.59 ms (+21.7 %), while throughput and step medians moved
        # 2-4 %.
        a_centers = dict(self.BASE, setup_s=2.95e-3)
        b_centers = dict(self.BASE, setup_s=3.59e-3,
                         atom_steps_per_s=self.BASE["atom_steps_per_s"] * 0.96,
                         step_ms_p50=self.BASE["step_ms_p50"] * 1.03)
        v = self.verdicts(run_set("io_dense", a_centers, 0.02, 3),
                          run_set("io_dense", b_centers, 0.02, 4))
        self.assertEqual(v["setup_s"], "WORSE")
        self.assertEqual(v["atom_steps_per_s"], "ok")
        self.assertEqual(v["step_ms_p50"], "ok")

    def test_jitter_dominated_steps_are_noisy(self):
        # Sub-millisecond socket steps dominated by scheduler jitter.
        noisy = dict(self.BASE, step_ms_p50=0.6)
        a = run_set("halo_socket", self.BASE, 0.02, 5)
        b = run_set("halo_socket", noisy, 0.02, 6)
        b["halo_socket"] = [dict(r, step_ms_p50=0.6 * (1 + 0.8 * (k % 2)))
                            for k, r in enumerate(b["halo_socket"])]
        self.assertEqual(self.verdicts(a, b)["step_ms_p50"], "NOISY")

    def test_noisy_setup_is_not_exempt(self):
        a = run_set("w", self.BASE, 0.02, 7)
        b = run_set("w", self.BASE, 0.02, 8)
        b["w"] = [dict(r, setup_s=0.25 * (1 + 0.8 * (k % 2)))
                  for k, r in enumerate(b["w"])]
        self.assertEqual(self.verdicts(a, b)["setup_s"], "NOISY")

    def test_raw_change_is_reported_beside_the_scaled_one(self):
        a = run_set("w", self.BASE, 0.0, 9)
        b = run_set("w", self.BASE, 0.0, 10)
        a_raw = run_set("w", self.BASE, 0.0, 11)
        b_raw = run_set("w", dict(self.BASE, step_ms_p50=132.0), 0.0, 12)
        rows = {r[1]: r for r in compare.compare(a, b, BENCH, a_raw, b_raw)}
        self.assertAlmostEqual(rows["step_ms_p50"][4], 0.0)
        self.assertAlmostEqual(rows["step_ms_p50"][7], 0.10)
        self.assertIsNone(compare.compare(a, b, BENCH)[0][7])

    def test_spread_row_matches_statistics_quantiles(self):
        med, q1, q3, spread = compare.spread_row([1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                  10])
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(spread, 1.0)


if __name__ == "__main__":
    unittest.main()

"""Tests of the end-to-end ABV benchmark's own logic.

    python3 -m unittest discover -s abvbench/tests

The unit tests need no build. ABVBENCH_LIVE_TEST=1 additionally runs every
workload once, traced and briefly, through abvbench/run.py (builds on first
use) and requires a correct result.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import e2e  # noqa: E402

DIGEST = "00112233aabbccdd"


def rep(**overrides):
    r = {
        "total_s": 1.0,
        "run_s": 0.8,
        "sim_end_ns": 8_000_000,
        "kernel_events": 1000,
        "delta_cycles": 500,
        "functional_ok": True,
        "properties_ok": True,
        "ingest_error": "",
        "digest": DIGEST,
        "node_visits": 5000,
        "activations": 100,
        "real_passes": 20,
        "vacuous_passes": 80,
        "metrics": {},
    }
    r.update(overrides)
    return r


def layers(**overrides):
    d = {
        "psl.suite_s": 1e-4,
        "models.stimulus_s": 0.05,
        "rewrite.abstract_s": 0.0,
        "checker.compile_s": 1e-4,
        "checker.program_nodes": 60,
        "passes": [
            {"ingest_s": 0.3, "finish_s": 0.01, "report_s": 1e-4, "digest": DIGEST}
            for _ in range(5)
        ],
        "spans_us": [10.0, 20.0, 30.0],
        "tracelog.next_s": 0.0,
        "records": 3000,
        "checker.prop_s": {"p1": 0.1},
        "twin_reps": [rep(run_s=0.4, total_s=0.45) for _ in range(5)],
        "tracelog.open_s": 0.0,
        "tracelog.write_s": 0.0,
        "tracelog.bytes": 0,
    }
    d.update(overrides)
    return d


def measure(reps=5, trace=False, **overrides):
    m = {
        "nproc": 4,
        "compiler": "GNU 12",
        "build_type": "Release",
        "jobs": 1,
        "shard_jobs": 0,
        "clock_period_ns": 10,
        "round": 1,
        "reference_digest": DIGEST,
        "cold": rep(total_s=1.7),
        "reps": [rep() for _ in range(reps)],
        "peak_rss_kb": 20480,
    }
    if trace:
        m["traced_reps"] = [rep() for _ in range(reps)]
        m["layers"] = layers()
    m.update(overrides)
    return m


PREP = {"live_ok": True, "reference_ok": True, "reference_digest": DIGEST}


class MetricNameGrammar(unittest.TestCase):
    def test_names_units_and_uniqueness(self):
        names = [n for n, *_ in e2e.END_TO_END] + [n for n, *_ in e2e.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(e2e.valid_name(name), name)
        for _, unit, better, *_ in e2e.END_TO_END + e2e.PER_LAYER:
            self.assertTrue(e2e.valid_unit(unit), unit)
            self.assertIn(better, ("lower", "higher"))

    def test_grammar_rejects(self):
        for bad in ("", ".total", "_x", "a b", "x" * 65, "a/b", "é"):
            self.assertFalse(e2e.valid_name(bad), bad)
        for bad in ("", "x" * 17, "m s", "s^2"):
            self.assertFalse(e2e.valid_unit(bad), bad)
        self.assertTrue(e2e.valid_name("checker.prop.c12_s"))
        self.assertTrue(e2e.valid_unit("1/s"))

    def test_setup_bound_is_largest_and_bounds_in_range(self):
        bounds = {n: b for n, _, _, b in e2e.END_TO_END}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        for b in bounds.values():
            self.assertTrue(0 < b <= 0.25)

    def test_benchmark_json_matches_module(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to abvbench/")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual(
            set(spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
            [tuple(m) for m in e2e.END_TO_END],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [tuple(m) for m in e2e.PER_LAYER],
        )
        self.assertEqual(
            {w["name"]: w["why"] for w in spec["workloads"]},
            {w.name: w.why for w in e2e.WORKLOADS.values()},
        )
        for w in spec["workloads"]:
            self.assertTrue(e2e.valid_name(w["name"]))
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertIn("abvbench", spec["paths"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        for arg in spec["command"]:
            self.assertFalse(arg.startswith("/") or ".." in arg, arg)


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(e2e.median([3, 1, 2]), 2)
        self.assertEqual(e2e.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(e2e.median([]), 0.0)

    def test_quartile_spread(self):
        # statistics.quantiles (exclusive) of 1..10: Q1 2.75, Q2 5.5, Q3 8.25.
        self.assertAlmostEqual(e2e.quartile_spread(list(range(1, 11))), 1.0)
        self.assertAlmostEqual(e2e.quartile_spread([2.0] * 10), 0.0)
        # Order does not matter; one outlier barely moves the quartiles.
        values = [1.0] * 9 + [100.0]
        self.assertAlmostEqual(e2e.quartile_spread(values[::-1]),
                               e2e.quartile_spread(values))
        self.assertLess(e2e.quartile_spread([1.0] * 8 + [1.1, 100.0]), 0.1)

    def test_round_median(self):
        self.assertAlmostEqual(e2e.round_median([3.0, 1.0, 2.0], 1), 2.0)
        # Rounds (1, 3) (2, 2) (10, 20); the trailing 7 is an incomplete round.
        self.assertAlmostEqual(e2e.round_median([1, 3, 2, 2, 10, 20, 7], 2), 2.0)
        # One slow CPU out of four shifts every round mean alike.
        values = [1.0, 1.0, 1.0, 2.0] * 5
        self.assertAlmostEqual(e2e.round_median(values, 4), 1.25)

    def test_percentile(self):
        values = list(range(101))
        self.assertAlmostEqual(e2e.percentile(values, 50), 50)
        self.assertAlmostEqual(e2e.percentile(values, 99), 99)
        self.assertAlmostEqual(e2e.percentile([5.0], 99), 5.0)
        self.assertAlmostEqual(e2e.percentile([1.0, 3.0], 50), 2.0)

    def test_end_to_end_medians(self):
        m = measure(reps=0)
        m["reps"] = [rep(total_s=t, run_s=t - 0.1) for t in (1.0, 1.2, 5.0)]
        v = e2e.end_to_end(m)
        self.assertAlmostEqual(v["total_s"], 1.2)
        self.assertAlmostEqual(v["run_s"], 1.1)
        self.assertAlmostEqual(v["setup_s"], 0.1)
        self.assertAlmostEqual(v["sim_cycles_per_s"], 800_000 / 1.1)
        self.assertAlmostEqual(v["peak_rss_mb"], 20.0)


class FailureCounting(unittest.TestCase):
    def test_clean_run(self):
        result, problems = e2e.summarize(
            e2e.WORKLOADS["des56_at_live"], PREP, measure(), trace=False)
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (6, 0))
        self.assertEqual(problems, [])
        self.assertEqual(set(result["metrics"]), {n for n, *_ in e2e.END_TO_END})

    def test_injected_digest_mismatch(self):
        m = measure()
        m["reps"][2]["digest"] = "ffffffffffffffff"
        result, _ = e2e.summarize(e2e.WORKLOADS["des56_at_live"], PREP, m, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (6, 1))

    def test_each_failure_kind_counts_once(self):
        m = measure(reps=4)
        m["reps"][0]["functional_ok"] = False
        m["reps"][1]["properties_ok"] = False
        m["reps"][2]["ingest_error"] = "truncated"
        m["cold"]["digest"] = "0"
        m["reps"][3].update(functional_ok=False, digest="0")
        self.assertEqual(e2e.count_failures(m), (5, 5))

    def test_traced_reps_are_checked(self):
        m = measure(trace=True)
        m["traced_reps"][0]["digest"] = "0"
        self.assertEqual(e2e.count_failures(m), (11, 1))

    def test_owned_env_mismatch_is_a_problem(self):
        m = measure(trace=True)
        m["layers"]["passes"][1] = dict(m["layers"]["passes"][1], digest="0")
        result, problems = e2e.summarize(
            e2e.WORKLOADS["des56_at_live"], PREP, m, trace=True)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertTrue(any("owned" in p for p in problems))


SHARDED = {"engine.batches": 40, "engine.shard_busy_ns": 10**9,
           "engine.backpressure_ns": 10**6, "engine.inflight_peak": 2}


def traced(workload, rep_metrics=None, shard_metrics=SHARDED, **layer_overrides):
    """A traced measure of `workload` whose calls publish `rep_metrics`; a
    workload with a sharded twin gets five twin calls publishing
    `shard_metrics`."""
    m = measure(trace=True, shard_jobs=workload.shard_jobs)
    for r in e2e.checked_reps(m):
        r["metrics"] = dict(rep_metrics or {})
    if workload.shard_jobs:
        m["shard_reps"] = [rep(metrics=dict(shard_metrics)) for _ in range(5)]
    if workload.replay:
        for r in e2e.checked_reps(m):
            r.update(kernel_events=0, delta_cycles=0)
        layer_overrides.setdefault("twin_reps", [])
        layer_overrides.setdefault("tracelog.open_s", 0.05)
        layer_overrides.setdefault("tracelog.write_s", 0.02)
        layer_overrides.setdefault("tracelog.bytes", 1 << 20)
    m["layers"].update(layer_overrides)
    return m


class BypassPredictions(unittest.TestCase):
    def check(self, name, m):
        w = e2e.WORKLOADS[name]
        return e2e.bypass_violations(w, e2e.per_layer(m), m)

    def test_clean_workloads_pass(self):
        self.assertEqual(self.check("des56_at_live", traced(
            e2e.WORKLOADS["des56_at_live"], {"engine.records": 9})), [])
        self.assertEqual(self.check("des56_rtl_live", traced(
            e2e.WORKLOADS["des56_rtl_live"], {"sim.kernel_events": 9})), [])
        self.assertEqual(self.check("colorconv_ca_replay", traced(
            e2e.WORKLOADS["colorconv_ca_replay"])), [])

    def test_replay_must_not_run_the_kernel(self):
        m = traced(e2e.WORKLOADS["colorconv_ca_replay"])
        for r in m["reps"]:
            r["kernel_events"] = 7
        self.assertTrue(any("sim.kernel_events" in v
                            for v in self.check("colorconv_ca_replay", m)))
        m = traced(e2e.WORKLOADS["colorconv_ca_replay"], twin_reps=[rep(run_s=0.1)])
        self.assertTrue(any("sim.kernel_s" in v
                            for v in self.check("colorconv_ca_replay", m)))

    def test_jobs1_calls_have_no_sharding_counters(self):
        for name in ("des56_at_live", "colorconv_ca_replay"):
            m = traced(e2e.WORKLOADS[name], {"engine.batches": 3})
            self.assertTrue(any("engine.batches" in v
                                for v in self.check(name, m)), name)

    def test_sharded_twin_must_dispatch(self):
        m = traced(e2e.WORKLOADS["colorconv_ca_replay"], shard_metrics={})
        self.assertTrue(any("engine.batches" in v
                            for v in self.check("colorconv_ca_replay", m)))

    def test_sharded_twin_metrics_and_checks(self):
        m = traced(e2e.WORKLOADS["colorconv_ca_replay"])
        v = e2e.per_layer(m)
        self.assertAlmostEqual(v["engine.sharded_run_s"], 0.8)
        self.assertAlmostEqual(v["engine.parallel_efficiency"], 1.0 / (2 * 0.8))
        self.assertEqual(v["engine.batches"], 40)
        m["shard_reps"][0]["digest"] = "0"
        self.assertEqual(e2e.count_failures(m), (16, 1))

    def test_rtl_has_no_tracelog_or_engine(self):
        m = traced(e2e.WORKLOADS["des56_rtl_live"], {},
                   **{"tracelog.open_s": 0.01})
        self.assertTrue(any("tracelog.open_s" in v
                            for v in self.check("des56_rtl_live", m)))
        m = traced(e2e.WORKLOADS["des56_rtl_live"], {"engine.records": 1})
        self.assertTrue(any("engine metrics" in v
                            for v in self.check("des56_rtl_live", m)))

    def test_per_layer_set_is_complete(self):
        m = traced(e2e.WORKLOADS["des56_at_live"], {})
        result, _ = e2e.summarize(e2e.WORKLOADS["des56_at_live"], PREP, m, trace=True)
        self.assertEqual(list(result["metrics"]), [n for n, *_ in e2e.PER_LAYER])


@unittest.skipUnless(os.environ.get("ABVBENCH_LIVE_TEST") == "1",
                     "set ABVBENCH_LIVE_TEST=1 to run the workloads")
class LiveWorkloads(unittest.TestCase):
    def test_every_workload_traced(self):
        for name in e2e.WORKLOADS:
            out = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "1", "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            self.assertEqual(out.returncode, 0, out.stderr[-2000:])
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertTrue(result["correct"], out.stderr[-2000:])
            self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()

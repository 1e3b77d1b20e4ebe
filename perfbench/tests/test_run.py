"""The benchmark's own tests: span self-time arithmetic (nested spans,
threads, forked workers), the tail-percentile rule, and the emitted metric
set against BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests

The span test compiles tests/spans_probe.cpp with src/spans.cpp into
.bench_build/tests/ and needs a C++20 compiler.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_ten_samples_beyond_the_tail(self):
        values = list(range(1, 201))
        self.assertEqual(run.tail_percentile(values), 190)
        self.assertEqual(sum(1 for v in values if v > 190), 10)

    def test_unsorted_input(self):
        values = list(range(400, 0, -1))
        self.assertEqual(run.tail_percentile(values), 380)

    def test_refuses_too_few_samples(self):
        with self.assertRaises(run.BenchError):
            run.tail_percentile(list(range(199)))
        with self.assertRaises(run.BenchError):
            run.tail_percentile([])


def fake_invocation(seeds, walls_ms, range_s, jobs=4, spans=None):
    fleet = {
        "entry_ns": 1_000, "exit_ns": 1_000 + int(range_s * 1e9), "jobs": jobs,
        "seeds": [[seed, 1, int(ms * 1e6)] for seed, ms in zip(seeds, walls_ms)],
        "sections_dirty": 3, "sections_total": 4, "encodes": 5, "rollup_checkpoints": 2,
        "redispatches": 0, "worker_deaths": 0, "fingerprint": "0",
    }
    return {"setup_s": 0.002, "range_s": range_s, "fleet": fleet, "rss_kb": 2048,
            "user_s": 4.0, "sys_s": 1.0, "rounds": [150_000, 160_000], "spans": spans or {}}


class MetricSetTest(unittest.TestCase):
    """Every workload emits exactly the metrics BENCHMARK.json declares."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
            cls.declared = json.load(handle)

    def test_declaration_matches_run_py(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.declared["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.declared["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.declared["workloads"]],
                         list(run.WORKLOADS))

    def emitted(self, metrics, traced):
        line = json.loads(run.result_line(True, 1, 0, metrics, traced))
        return {name: entry["unit"] for name, entry in line["metrics"].items()}

    def check(self, summary, wall, layers):
        self.assertEqual(self.emitted(summary, False), run.END_TO_END)
        layers = dict(layers, **wall, **{"trace.overhead_ratio": 0.9})
        self.assertEqual(self.emitted(layers, True), run.PER_LAYER)

    def test_soak(self):
        invocations = [fake_invocation(range(i * 256, i * 256 + 256), [30.0] * 256, 2.0)
                       for i in range(2)]
        self.check(run.soak_summary(invocations), run.soak_wall(invocations),
                   run.soak_layers(invocations))

    def test_verify(self):
        result = {"states": 10, "explore_ns": 100, "explore_ns_each": [5] * 200,
                  "setup_s": [0.001], "peak_rss_kb": 1024, "transitions": 20,
                  "revisits": 10, "fallbacks": 2, "loop_user_s": 1.0, "loop_sys_s": 0.0,
                  "cal_round_ns": 150_000, "setup_round_ns": 150_000, "spans": {}}
        self.check(run.verify_summary(result), run.verify_wall(result),
                   run.verify_layers(result))

    def test_compile(self):
        result = {"model_ns": [3_000_000] * 200, "setup_s": [0.00002],
                  "peak_rss_kb": 1024, "psm_elements": 7, "lines": 9, "loop_user_s": 0.6,
                  "loop_sys_s": 0.01, "cal_round_ns": 300_000, "setup_round_ns": 160_000,
                  "spans": {}}
        self.check(run.compile_summary(result), run.compile_wall(result),
                   run.compile_layers(result))

    def test_unknown_or_missing_metric_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"units_per_norm_s": 1.0}, False)
        summary = run.compile_summary({"model_ns": [1] * 200, "setup_s": [1.0],
                                       "peak_rss_kb": 1, "loop_user_s": 1.0,
                                       "cal_round_ns": 1, "setup_round_ns": 1})
        summary["extra"] = 1
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, summary, False)


class SpanArithmeticTest(unittest.TestCase):
    """Self time across nested spans, threads and a forked worker, from the
    recorder's files through run.py's reduction."""

    def test_probe(self):
        compiler = shutil.which("c++") or shutil.which("g++")
        if compiler is None:
            self.skipTest("no C++ compiler")
        work = os.path.join(run.BUILD_ROOT, "tests")
        out_dir = os.path.join(work, "spans")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(out_dir)
        probe = os.path.join(work, "spans_probe")
        subprocess.run([compiler, "-std=c++20", "-O1", "-pthread",
                        "-I", os.path.join(run.HERE, "src"),
                        os.path.join(run.HERE, "src", "spans.cpp"),
                        os.path.join(HERE, "spans_probe.cpp"), "-o", probe], check=True)
        subprocess.run([probe, out_dir], check=True)

        files = sorted(os.listdir(out_dir))
        self.assertEqual(len(files), 2, files)  # the parent and its forked child
        spans = run.read_spans(out_dir)

        def row(calls, total, self_ns, root, arg=0):
            return {"calls": calls, "total_ns": total, "self_ns": self_ns, "root_ns": root,
                    "arg": arg}

        self.assertEqual(spans, {
            # [0,100) on the main thread plus a [1000,1005) root on two threads.
            "sim.run": row(3, 110, 70, 110),
            "replay.checkpoint": row(2, 40, 30, 0),
            "replay.encode": row(1, 10, 10, 0, arg=7),
            # Only the forked child's own spans; the parent's were cleared.
            "verify.explore": row(1, 50, 30, 50),
            "statechart.dispatch": row(1, 20, 20, 0),
        })
        layers = run.span_layers(spans)
        self.assertEqual(layers["sim.run.self_ms"], 70 / 1e6)
        self.assertEqual(layers["replay.checkpoint.self_ms"], 30 / 1e6)
        self.assertEqual(layers["verify.self_ms"], 30 / 1e6)

        # Seed wall not under any root span is the soak body.
        # Two seeds of 100 ns on two workers over a 100 ns range: no idle time.
        invocation = fake_invocation([1, 2], [0.0001, 0.0001], 1e-7, jobs=2, spans=spans)
        soak = run.soak_layers([invocation])
        self.assertAlmostEqual(soak["soak.body.self_ms"], (200 - 160) / 1e6)
        self.assertAlmostEqual(soak["soak.span_coverage"], 160 / 200)
        self.assertAlmostEqual(soak["fleet.idle_ms"], 0.0)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark: its metric arithmetic and a small smoke run.

    python3 -m unittest discover -s perfbench/tests -v

The smoke tests build perfbench_driver on first use (as run.py does) and run
every workload at 64^3 with tracing on and off.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import benchlib  # noqa: E402
import run  # noqa: E402


def span(id_, parent, name, start, end, op=1, **attrs):
    s = {"id": id_, "parent": parent, "op": op, "name": name,
         "start": start, "end": end}
    if attrs:
        s["attrs"] = attrs
    return s


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(samples, 50), (50, 50))
        self.assertEqual(benchlib.percentile(samples, 95), (95, 5))
        self.assertEqual(benchlib.percentile([7.0], 95), (7.0, 0))

    def test_tail_needs_ten_samples_beyond(self):
        # p95 of 200 samples leaves exactly 10 beyond it; of 199, only 9.
        self.assertEqual(benchlib.tail_percentile(list(range(200)), 95), 189)
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(list(range(199)), 95)

    def test_order_does_not_matter(self):
        samples = [5, 1, 4, 2, 3] * 50
        self.assertEqual(benchlib.tail_percentile(samples, 95),
                         benchlib.tail_percentile(sorted(samples), 95))


class FailedOpsAccounting(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(benchlib.failed_ops_frac(10, 0), 0.0)
        self.assertEqual(benchlib.failed_ops_frac(10, 3), 0.3)

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(benchlib.failed_ops_frac(0, 0), 1.0)

    def test_more_failures_than_attempts_is_rejected(self):
        with self.assertRaises(ValueError):
            benchlib.failed_ops_frac(2, 3)


class SpanSelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, "op", 0.0, 10.0),
                 span(2, 1, "a", 1.0, 3.0),
                 span(3, 1, "b", 2.0, 5.0),  # overlaps a: union 1..5
                 span(4, 1, "c", 7.0, 8.0)]
        selfs = benchlib.self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[4], 1.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(1, 0, "op", 0.0, 10.0),
                 span(2, 1, "chunk", 0.0, 6.0),
                 span(3, 2, "leaf", 1.0, 4.0)]
        selfs = benchlib.self_times(spans)
        self.assertAlmostEqual(selfs[1], 4.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 3.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, "op", 0.0, 2.0), span(2, 1, "late", 1.5, 3.0)]
        self.assertAlmostEqual(benchlib.self_times(spans)[1], 1.5)

    def test_parallel_chunks_give_parallel_efficiency(self):
        # Two threads, two chunks of 4 s each in an 5 s op: 8 / (2 * 5).
        spans = [span(1, 0, "compress", 0.0, 5.0),
                 span(2, 1, "sperr.chunk", 0.0, 4.0),
                 span(3, 1, "sperr.chunk", 0.5, 4.5),
                 span(4, 1, "lossless.compress", 4.5, 5.0,
                      in_bytes=100.0, out_bytes=90.0)]
        rec = {"codec": {"passes": 1, "threads": 2, "lib_compress_s": 5.0,
                         "lib_decompress_s": 1.0, "lib_compress_1t_s": 8.0},
               "serve": {"server_requests": 1, "latency_ms": [1.0],
                         "queue_wait_s": 0.0, "busy_s": 0.0005, "workers": 1,
                         "wall_s": 1.0, "busy_replies": 0, "retries": 0},
               "attempted": 3, "failed": 0, "threads": 2, "cores": 2}
        m = benchlib.per_layer(rec, spans)
        self.assertAlmostEqual(m["sperr.par_eff"], 0.8)
        self.assertAlmostEqual(m["sperr.serial_s"], 0.5)
        self.assertAlmostEqual(m["sperr.scaling_eff"], 0.8)
        self.assertAlmostEqual(m["lossless.enc_s"], 0.5)
        self.assertAlmostEqual(m["lossless.saved_frac"], 0.1)


class Smoke(unittest.TestCase):
    """All four workloads at 64^3, traced and untraced, through run.py."""

    def run_bench(self, workload, trace):
        r = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--small"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(r.returncode, 0, r.stdout[-3000:])
        return json.loads(r.stdout.strip().splitlines()[-1])

    def test_every_workload_reports_every_metric(self):
        for trace in (0, 1):
            declared = run.declared_units(trace)
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    res = self.run_bench(workload, trace)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), set(declared))
                    for name, m in res["metrics"].items():
                        self.assertEqual(m["unit"], declared[name])

    def test_driver_refuses_more_threads_than_cores(self):
        driver = run.build()
        self.assertIsNotNone(driver)
        cores = len(os.sched_getaffinity(0))
        r = subprocess.run(
            [driver, "--workload", "pwe_high", "--seed", "0", "--seconds", "1",
             "--trace", "0", "--small"],
            env=dict(os.environ, OMP_NUM_THREADS=str(cores + 1)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
        self.assertEqual(r.returncode, 2)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()

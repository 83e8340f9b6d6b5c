"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build radio-lab and perfbench-trace (as a benchmark run
does) and run every workload at `--tiny` scale, traced and untraced.
"""

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)
        self.assertFalse(set(run.END_TO_END) & set(run.PER_LAYER))

    def test_benchmark_json_lists_exactly_these_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(listed, table)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


class Parsers(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_serve_log_counts_attempts_and_takeovers(self):
        log = "\n".join([
            "serve: 1 spec(s) submitted to spool (2 shards each, chunk 4, lease 5000ms)",
            "[w0] leased shard 0 of q0000-X (attempt 0)",
            "[w0] published shard 0 of q0000-X",
            "[w1] taking over shard 1 of q0000-X (lease of w0 attempt 0 expired)",
            "[w1] leased shard 1 of q0000-X (attempt 1)",
        ])
        self.assertEqual(run.parse_serve_log(log), {"attempts": 2, "takeovers": 1})
        self.assertEqual(run.parse_serve_log(""), {"attempts": 0, "takeovers": 0})

    def test_ledger_counts_terminal_and_leftover_files(self):
        shards = self.dir / "q0000-X" / "shards"
        shards.mkdir(parents=True)
        for name in ("s0.partial", "s0.jsonl", "s1.partial", "s1.claim2", "s1.fail0.json",
                     "s2.ckpt", "stray.tmp"):
            (shards / name).write_text("")
        self.assertEqual(
            run.parse_ledger(self.dir),
            {"specs": 1, "partial": 2, "fail": 1, "claim": 1, "ckpt": 1, "other": 1},
        )

    def test_jsonl_reader_marks_torn_and_malformed_lines(self):
        path = self.dir / "r.jsonl"
        path.write_bytes(b'{"n": 8}\nnot json\n{"n": 16')
        self.assertEqual(run.jsonl_records(path), [{"n": 8}, None, None])

    def test_lab_records_flatten_scenarios_in_order(self):
        path = self.dir / "out.json"
        report = {"scenarios": [
            {"run": {"records": [[{"n": 1}], [{"n": 2}]]}},
            {"run": {"records": [[{"n": 3}]]}},
        ]}
        path.write_text(json.dumps(report))
        self.assertEqual(run.lab_records(path), [[{"n": 1}], [{"n": 2}], [{"n": 3}]])
        path.write_text(json.dumps({"scenarios": [{"run": None}]}))
        with self.assertRaises(run.BenchError):
            run.lab_records(path)

    def test_unit_sizes_follow_the_nesting_order(self):
        spec = {
            "topologies": [{"kind": {"GeometricDense": {"n": 8}}},
                           {"kind": {"GeometricDegree": {"n": 16, "degree": 4.0}}}],
            "adversaries": ["ReliableOnly"],
            "workloads": [{}, {}],
            "trials": 2,
            "nest": "TopologyMajor",
        }
        self.assertEqual(run.unit_sizes(spec), [8] * 4 + [16] * 4)
        spec["nest"] = "WorkloadMajor"
        self.assertEqual(run.unit_sizes(spec), [8, 8, 16, 16] * 2)

    def test_tail_is_the_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(1, 41))), (20.5, 30, 75.0))
        p50, tail, q = run.tail_percentile([float(x) for x in range(1000)])
        self.assertEqual((tail, q), (989.0, 99.0))
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0])[1:], (1.0, 0.0))


class Smoke(unittest.TestCase):
    """Each workload at tiny scale, through the same entry point the
    benchmark uses."""

    def run_bench(self, workload, trace):
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--tiny",
             "--seed", "1", "--seconds", "0", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=900,
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        return result["metrics"]

    def test_every_workload_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_bench(workload, 0)
                self.assertGreater(metrics["wall_s"]["value"], 0)
                self.assertGreater(metrics["setup_s"]["value"], 0)

    def test_every_workload_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_bench(workload, 1)
                self.assertGreater(metrics["sim.engine.node_rounds"]["value"], 0)
                if workload == "serve-durable":
                    self.assertEqual(metrics["bench.serve.attempts"]["value"], run.SHARDS)
                    self.assertEqual(metrics["bench.serve.takeovers"]["value"], 0)


if __name__ == "__main__":
    unittest.main()

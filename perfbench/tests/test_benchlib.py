"""Tests of the benchmark's own pieces: its definition, the checks on what
the program reports, result files and the compare mode.

Run from the repository root: python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchlib  # noqa: E402


def record(workload="ra_fs", seed=1, trace=False, **values):
    metrics = benchlib.expected_metrics(trace)
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {m.name: {"value": values.get(m.name, 1.0), "unit": m.unit}
                    for m in metrics},
        "extras": {"spawn_rtt_us": {"value": 15.0, "unit": "us", "samples": 900}},
        "problems": [],
    }


class Definition(unittest.TestCase):
    def test_definition_keeps_the_rules(self):
        self.assertEqual(benchlib.spec_problems(), [])

    def test_bad_names_are_caught(self):
        for bad in ["", "_x", "a b", "x" * 65, "é"]:
            self.assertIsNone(benchlib.NAME_RE.match(bad), bad)
        for good in ["setup_s", "spawn.initiate_ns", "0x", "a-b"]:
            self.assertIsNotNone(benchlib.NAME_RE.match(good), good)
        for bad in ["", "micro seconds", "x" * 17]:
            self.assertIsNone(benchlib.UNIT_RE.match(bad), bad)

    def test_committed_benchmark_json_matches_the_definition(self):
        committed = benchlib.benchmark_json_path().read_text(encoding="utf-8")
        self.assertEqual(committed, benchlib.describe_text())


class Records(unittest.TestCase):
    def test_complete_record_passes(self):
        self.assertEqual(benchlib.record_problems(record(), False), [])
        self.assertEqual(benchlib.record_problems(record(trace=True), True), [])

    def test_missing_extra_and_mislabelled_metrics_are_reported(self):
        r = record()
        del r["metrics"]["op_p50_us"]
        r["metrics"]["made_up"] = {"value": 1.0, "unit": "s"}
        r["metrics"]["setup_s"]["unit"] = "ms"
        r["metrics"]["ops_per_s"]["value"] = None
        found = " | ".join(benchlib.record_problems(r, False))
        for part in ["missing metrics ['op_p50_us']", "unlisted metrics ['made_up']",
                     "setup_s: unit 'ms'", "ops_per_s: value None"]:
            self.assertIn(part, found)

    def test_result_line_has_exactly_the_driver_keys(self):
        line = json.loads(benchlib.result_line(record()))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]["op_p50_us"]), {"value", "unit"})

    def test_result_file_round_trip(self):
        runs = [record(seed=s, ops_per_s=100.0 + s) for s in range(3)]
        with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as d:
            path = Path(d) / "results.jsonl"
            for r in runs:
                benchlib.append_result(path, r)
            self.assertEqual(benchlib.load_results(path), runs)


class Compare(unittest.TestCase):
    def runs(self, ops, p50=100.0, setup=0.001):
        return [record(seed=i, ops_per_s=v, op_p50_us=p50, setup_s=setup)
                for i, v in enumerate(ops)]

    def verdicts(self, rows):
        return {(w, n): v for w, n, _, _, v in rows}

    def test_quartiles_follow_statistics_quantiles(self):
        med, q1, q3, spread = benchlib.summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(spread, 1.0)

    def test_same_code_agrees(self):
        rows, ok = benchlib.compare(self.runs([100, 101, 99, 100]), self.runs([100, 98, 102, 100]))
        self.assertTrue(ok)
        self.assertEqual(self.verdicts(rows)[("ra_fs", "ops_per_s")], "agree")
        self.assertEqual(self.verdicts(rows)[("ra_fs", "spawn_rtt_us")], "-")

    def test_regression_beyond_the_bound_disagrees(self):
        bound = next(m.bound for m in benchlib.END_TO_END if m.name == "ops_per_s")
        slower = 100 * (1 - bound) - 1
        rows, ok = benchlib.compare(self.runs([100] * 4), self.runs([slower] * 4))
        self.assertFalse(ok)
        self.assertEqual(self.verdicts(rows)[("ra_fs", "ops_per_s")], "DISAGREE")

    def test_improvement_agrees(self):
        _, ok = benchlib.compare(self.runs([100] * 4), self.runs([150] * 4))
        self.assertTrue(ok)

    def test_wide_spread_disagrees_except_for_setup(self):
        wide = [50, 100, 150, 200]  # quartiles 62.5 and 187.5 around 125
        _, ok = benchlib.compare(self.runs(wide), self.runs(wide))
        self.assertFalse(ok)
        noisy_setup = [record(seed=i, setup_s=v) for i, v in enumerate([1, 2, 3, 4])]
        _, ok = benchlib.compare(noisy_setup, noisy_setup)
        self.assertTrue(ok)


if __name__ == "__main__":
    unittest.main()

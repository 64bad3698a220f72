"""Schema of BENCHMARK.json and its agreement with the benchmark's files.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
# Run budget: 4 + 22 runs per workload, each run_seconds plus set-up,
# gates and process start-up, and two builds, within 3420 s.
RUN_OVERHEAD_S = 12
BUILD_S = 150
BUDGET_S = 3420


def load(path):
    with open(path) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        cls.spec = load(os.path.join(HERE, "workloads.json"))
        with open(os.path.join(HERE, "session.cc")) as f:
            cls.session = f.read()

    def test_top_level_keys(self):
        self.assertEqual(set(self.bench), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)

    def test_command_and_paths(self):
        cmd = self.bench["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        for arg in cmd:
            self.assertIsInstance(arg, str)
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"))
            self.assertNotIn("..", arg.split("/"))
        paths = self.bench["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertNotIn("..", p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)), p)
        # Repo files the command names must lie under `paths`.
        for arg in cmd[1:]:
            if os.path.exists(os.path.join(ROOT, arg)):
                self.assertTrue(any(arg.startswith(p + "/") for p in paths),
                                arg)

    def test_workloads(self):
        wl = self.bench["workloads"]
        self.assertTrue(2 <= len(wl) <= 8)
        for w in wl:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200)
            self.assertNotIn("\n", w["why"])
        self.assertEqual({w["name"] for w in wl},
                         set(self.spec["workloads"]))

    def test_metrics(self):
        e2e = self.bench["end_to_end"]
        layers = self.bench["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layers) <= 128)
        names = [m["name"] for m in e2e + layers]
        self.assertEqual(len(names), len(set(names)))
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in layers:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))

    def test_every_metric_is_emitted_by_the_session(self):
        for m in self.bench["end_to_end"]:
            self.assertIn('"%s"' % m["name"], self.session)
        overhead = {"trace.overhead." + m["name"]
                    for m in self.bench["end_to_end"]}
        for m in self.bench["per_layer"]:
            if m["name"] not in overhead:
                self.assertIn('"%s"' % m["name"], self.session)
        self.assertEqual(
            overhead, {m["name"] for m in self.bench["per_layer"]
                       if m["name"].startswith("trace.overhead.")})

    def test_layer_map_covers_every_layer_metric(self):
        # A layer metric moves an end-to-end metric or one of the
        # unbounded user-facing tails listed with the layer metrics.
        targets = {m["name"] for m in self.bench["end_to_end"] +
                   self.bench["per_layer"]}
        workloads = set(self.spec["workloads"])
        mapped = {}
        for entry in self.spec["layer_map"]:
            mapped[entry["metric"]] = entry
            self.assertTrue(set(entry["moves"]) <= targets, entry)
            self.assertTrue(set(entry["on"]) <= workloads, entry)
        for m in self.bench["per_layer"]:
            if not m["name"].startswith("trace.overhead."):
                self.assertIn(m["name"], mapped)

    def test_workload_constants(self):
        seconds = self.bench["run_seconds"]
        self.assertIsInstance(seconds, int)
        self.assertTrue(1 <= seconds <= 60)
        common = self.spec["common"]
        self.assertLessEqual(common["readers"] + 1 + common["pool_threads"],
                             4, "generator + pool threads exceed 4 cores")
        for name, w in self.spec["workloads"].items():
            cfg = dict(common, **w)
            ladder = cfg["rate_ladder"]
            self.assertEqual(ladder, sorted(ladder), name)
            self.assertLess(cfg["nominal_rps"], ladder[0], name)
            # Adjacent rungs within 10%, so the max rate repeats within a
            # tenth.
            for lo, hi in zip(ladder, ladder[1:]):
                self.assertLessEqual(hi / lo, 1.10, name)
            # Bisection probes, each tried at most twice.
            probes = 2 * math.ceil(math.log2(len(ladder) + 1))
            shares = (cfg["query_share"] + cfg["warm_share"] +
                      probes * cfg["rung_share"] + cfg["nominal_share"] +
                      cfg["fresh_share"])
            self.assertAlmostEqual(shares, 1.0, places=6, msg=name)
            self.assertEqual(cfg["fresh_share"] == 0,
                             cfg["appends_during_serve"] == 1, name)
            # The nominal segment supports a p99 (>= 1000 requests).
            self.assertGreaterEqual(
                cfg["nominal_rps"] * cfg["nominal_share"] * seconds, 1000,
                name)
            self.assertIn("max_gen_lag_p99_ms", cfg["checks"])

    def test_run_budget(self):
        runs = 4 + 22 * len(self.bench["workloads"])
        total = 2 * BUILD_S + runs * (self.bench["run_seconds"] +
                                      RUN_OVERHEAD_S)
        self.assertLessEqual(total, BUDGET_S)


if __name__ == "__main__":
    unittest.main()

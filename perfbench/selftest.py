"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Takes about a minute: the last test runs
the benchmark itself for one command per mode.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

from run import HERE, ROOT, child_env
from workloads import WORKLOADS, check_output, expected_outputs, load_references, make_config

sys.path.insert(0, os.path.join(ROOT, "src"))

SMALL = {
    "compare": {
        "ensembles": {"1": {"preset": "goe"}, "2": {"theta": 0.5, "eta": 2, "k4": 1}},
        "family": {"matrices": [{"kind": "diagonal_pattern", "values": [1, -1]},
                                {"kind": "circulant", "first_row": [0.5, 0.5]}]},
        "pairs": [["x1 a0", "x1 a1"], ["x1 a0 x1 a1", "x1 a0 x1 a1"], ["x2 a1 x2", "x2 a0"]],
        "N": [4], "R": 200, "seed": 3,
    },
    "theory": {
        "ensembles": {"1": {"theta": 0.5, "eta": 2, "k4": 1}},
        "family": {"matrices": [{"kind": "random_fixed", "seed": 7}]},
        "pairs": [["x1 a0 x1 a0 x1 a0", "x1 a0 x1 x1 a0"]],
        "N": [12], "R": 2, "seed": 1,
    },
}


def run_cli(command, doc, traced):
    """(record without its timing block, layer metrics or None) of one command."""
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        args = [command, "--config", config]
        spans = os.path.join(tmp, "spans.json")
        argv = [os.path.join(HERE, "child.py"), "trace", spans] if traced else ["-m", "wignerfluct.cli"]
        proc = subprocess.run([sys.executable] + argv + args, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        record.pop("timing", None)
        layers = None
        if traced:
            from tracer import layer_metrics

            with open(spans) as fh:
                layers = layer_metrics(json.load(fh))
        return record, layers


class TracedRun(unittest.TestCase):
    def test_traced_output_matches_untraced(self):
        for command, doc in SMALL.items():
            plain, _ = run_cli(command, doc, traced=False)
            traced, layers = run_cli(command, doc, traced=True)
            self.assertEqual(plain, traced, command)
            self.assertGreater(layers["covariance.phi2_terms_calls"][0], 0)

    def test_counts_repeat_exactly(self):
        for command, doc in SMALL.items():
            _, first = run_cli(command, doc, traced=True)
            _, second = run_cli(command, doc, traced=True)
            for name, (value, unit) in first.items():
                if unit in ("count", "B", "ratio"):
                    self.assertEqual(value, second[name][0], name)

    def test_wrappers_restore_originals(self):
        import importlib

        from tracer import MODULES, Tracer

        modules = {name: importlib.import_module(name) for name in MODULES}

        def snapshot():
            out = {}
            for name, mod in modules.items():
                for key, value in vars(mod).items():
                    out[(name, key)] = value
                    if isinstance(value, type) and value.__module__ == name:
                        for attr, member in vars(value).items():
                            out[(name, key, attr)] = member
            return out

        before = snapshot()
        tracer = Tracer()
        tracer.install()
        try:
            during = snapshot()
            changed = {k for k in before if during.get(k) is not before[k]}
            self.assertIn(("wignerfluct.covariance", "enumerate_nc2"), changed)
            self.assertIn(("wignerfluct.states", "FiniteNState", "phi"), changed)
        finally:
            tracer.uninstall()
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)


class Checks(unittest.TestCase):
    def test_wrong_values_and_exit_codes_count(self):
        name = "oracle_n8"
        refs = load_references()[name]
        doc, order = make_config(name, 4)
        total = expected_outputs(name)
        rows = []
        for i in order:
            ref = refs[i]
            rows.append({"theory": {"total": {"re": ref["theory"][0], "im": ref["theory"][1]}},
                         "oracle": {"re": ref["oracle"][0], "im": ref["oracle"][1]},
                         "discrepancy": False})
        good = json.dumps({"runs": [{"pairs": rows}]})
        self.assertEqual(check_output(name, order, 0, good, refs), (total, 0))
        rows[0]["oracle"]["re"] += 1e-3
        rows[1]["discrepancy"] = True
        bad = json.dumps({"runs": [{"pairs": rows}]})
        self.assertEqual(check_output(name, order, 0, bad, refs), (total, 2))
        self.assertEqual(check_output(name, order, 1, good, refs), (total, total))
        self.assertEqual(check_output(name, order, 0, "", refs), (total, total))
        self.assertEqual(len(doc["pairs"]), len(refs))


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        with open(os.path.join(HERE, "layers.json")) as fh:
            layers = json.load(fh)["layers"]
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        self.assertEqual([w["why"] for w in bench["workloads"]],
                         [w["why"] for w in WORKLOADS.values()])
        per_layer = [m["name"] for m in bench["per_layer"]]
        self.assertEqual(sorted(per_layer), sorted(m for l in layers.values() for m in l["metrics"]))
        expected = {0: [m["name"] for m in bench["end_to_end"]], 1: per_layer}
        for trace, names in expected.items():
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "theory_deg7_n8",
                    "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(sorted(result["metrics"]), sorted(names))
            units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], units[name], name)


if __name__ == "__main__":
    unittest.main()

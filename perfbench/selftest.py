"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

* scripts are reproducible: the same seed gives byte-identical request
  scripts and decision digests, another seed gives different ones;
* the churn script exercises the reject, release and capacity paths;
* attribution is sound: a fixed sleep injected into one layer's public
  call raises that layer's per-layer metric by about sleep x calls and
  leaves the unattributed remainder alone.

For the last test this file doubles as a server launcher: started with
``server_proc.py`` arguments and ``PERFBENCH_SLEEP=LAYER=SECONDS`` in
its environment, it patches that layer's call to sleep first, then runs
``server_proc.py``.
"""

from __future__ import annotations

import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

#: Layer whose call gets the sleep -> the per-layer metric it must move.
SLEEP_TARGETS = {
    "parse": "service.parse_us",
    "exact": "admission.exact_us",
}

SLEEP_S = 0.002


def _sleeping(fn, seconds):
    def slow(*args, **kwargs):
        time.sleep(seconds)
        return fn(*args, **kwargs)

    return slow


def _serve_with_sleep(layer: str, seconds: float, rest: list) -> int:
    """Patch one layer's call to sleep first, then run the server."""
    import server_proc

    if layer == "parse":
        import repro.service.server as server

        server.load_body = _sleeping(server.load_body, seconds)
    elif layer == "exact":
        from repro.admission_incremental import IncrementalAdmissionController as cls

        cls._exact_verdicts = _sleeping(cls.__dict__["_exact_verdicts"], seconds)
    else:
        raise SystemExit(f"unknown layer {layer!r}")
    sys.argv = [os.path.join(HERE, "server_proc.py"), *rest]
    return server_proc.main()


class ScriptTests(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_differs(self):
        from scripts import SERVICE_WORKLOADS, generate

        for workload in SERVICE_WORKLOADS:
            a = generate(workload, 7, 300)
            b = generate(workload, 7, 300)
            c = generate(workload, 8, 300)
            self.assertEqual(a.timed_requests, b.timed_requests, workload)
            self.assertEqual(a.script_digest(), b.script_digest(), workload)
            self.assertEqual(a.decision_digest(), b.decision_digest(), workload)
            self.assertNotEqual(a.script_digest(), c.script_digest(), workload)
            self.assertNotEqual(a.decision_digest(), c.decision_digest(), workload)

    def test_churn_exercises_reject_release_and_capacity(self):
        from scripts import generate

        for seed in (1, 2, 3):
            kinds = generate("serve_admit_churn", seed, 3000).kinds
            self.assertGreater(kinds.get("admit/exact/True", 0), 0, kinds)
            self.assertGreater(kinds.get("admit/exact/False", 0), 0, kinds)
            self.assertGreater(kinds.get("release", 0), 0, kinds)
            capacity = kinds.get("admit/capacity/False", 0) + kinds.get(
                "check/capacity/False", 0
            )
            self.assertGreater(capacity, 0, kinds)


class MetricTableTests(unittest.TestCase):
    def test_reported_metrics_match_benchmark_json(self):
        import json

        import run

        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        for key, table in (
            ("end_to_end", run.END_TO_END),
            ("per_layer", run.PER_LAYER),
        ):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(declared, table, key)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class AttributionTests(unittest.TestCase):
    """A sleep in one layer shows up in that layer, not the remainder."""

    def _layers(self, layer: str | None) -> dict:
        import run
        from scripts import generate

        root = os.getcwd()
        env = run._child_env(os.path.join(root, "src"))
        script = generate("serve_check_warm", 3, 400)
        launcher = None
        if layer is not None:
            launcher = os.path.join(HERE, "selftest.py")
            env = dict(env, PERFBENCH_SLEEP=f"{layer}={SLEEP_S}")
        session = run.ServiceSession(
            "serve_check_warm", script, env, root, trace=True, launcher=launcher
        )
        try:
            window = run._timed_window(session, script)
        finally:
            session.close()
        self.assertEqual(window["failed"], 0)
        return run._service_layers([window], "serve_check_warm")

    def test_sleep_lands_in_its_layer(self):
        base = self._layers(None)
        for layer, metric in SLEEP_TARGETS.items():
            with self.subTest(layer=layer):
                slow = self._layers(layer)
                # One call per request for both targets on this script.
                expected_us = SLEEP_S * 1e6
                grew = slow[metric] - base[metric]
                self.assertGreater(grew, 0.9 * expected_us, (metric, grew))
                self.assertLess(grew, 1.5 * expected_us, (metric, grew))
                remainder = (
                    slow["service.unattributed_us"] - base["service.unattributed_us"]
                )
                self.assertLess(abs(remainder), 0.2 * expected_us, remainder)


if __name__ == "__main__":
    spec = os.environ.get("PERFBENCH_SLEEP")
    if spec and sys.argv[1:2] == ["--mode"]:
        name, seconds = spec.split("=")
        sys.exit(_serve_with_sleep(name, float(seconds), sys.argv[1:]))
    unittest.main()

"""Pins the deterministic counters of the traced benchmark run.

    python3 perfbench/counters_check.py

Counters must repeat exactly across two traced passes, and across seeds
wherever the seed does not change the work.  Timings are never asserted.
A cold optimizer sweep at t makes (3t-1)t claw_bound_terms calls, which
gives the pinned totals below.
"""

from __future__ import annotations

import shutil
import unittest
from time import perf_counter

import run

SCAN_LAYERS = ("scan.", "bounds.")
GQ_LAYERS = ("graph.", "incidence.")


def counters(workload: str, seed: int) -> dict[str, int]:
    """Counter metrics of one traced pass of workload at seed."""
    work = run.OUT / f"counters-{workload}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        invocations = run.WORKLOAD_INVOCATIONS[workload](seed, work)
        runner = run.Runner(perf_counter() + 600)
        traced = run.run_pass(runner, invocations, traced=True)
        runner.spans_path.unlink(missing_ok=True)
    finally:
        shutil.rmtree(work)
    if runner.failures:
        raise AssertionError(f"{workload} failed: {runner.failures}")
    values = run.layer_values(traced, len(invocations))
    return {name: v for name, v in values.items() if run.PER_LAYER[name][0] == "count"}


def sweep_calls(t: int) -> int:
    return (3 * t - 1) * t


def layer(values: dict[str, int], prefixes) -> dict[str, int]:
    return {name: v for name, v in values.items() if name.startswith(prefixes)}


class CounterTest(unittest.TestCase):
    def test_scan(self):
        first, second, other_seed = counters("scan", 1), counters("scan", 1), counters("scan", 7)
        self.assertEqual(first, second)
        self.assertEqual(first, other_seed)
        self.assertEqual(first["scan.check_one_calls"], 122_728)
        self.assertEqual(first["bounds.claw_bound_terms_calls"],
                         sum(sweep_calls(t) for t in range(2, 31)))
        self.assertEqual(first["bounds.claw_bound_terms_calls"], 27_898)
        self.assertEqual(set(layer(first, GQ_LAYERS).values()), {0})

    def test_bound(self):
        first, second, other_seed = counters("bound", 1), counters("bound", 1), counters("bound", 7)
        self.assertEqual(first, second)
        # The seed only picks S, which changes no counter.
        self.assertEqual(first, other_seed)
        self.assertEqual(first["bounds.claw_bound_terms_calls"],
                         2 * sum(sweep_calls(t) for t in run.BOUND_TS))
        self.assertEqual(first["bounds.claw_bound_terms_calls"], 352_320)
        self.assertEqual(first["bounds.optimal_claw_bound_calls"], 8)
        self.assertEqual(first["scan.check_one_calls"], 4)
        self.assertEqual(set(layer(first, GQ_LAYERS).values()), {0})

    def test_gq(self):
        first, second, other_seed = counters("gq", 1), counters("gq", 1), counters("gq", 7)
        self.assertEqual(first, second)
        # The seed moves the pseudo-GQ's witness vertex, and so how many
        # claw numbers extract-gq computes before it stops; nothing else.
        for name in ("graph.verify_srg_calls", "incidence.verify_axioms_calls"):
            self.assertEqual(first[name], other_seed[name])
        self.assertEqual(first["graph.verify_srg_calls"], 9)
        self.assertEqual(first["incidence.verify_axioms_calls"], 6)
        # Four full claw censuses of 400 vertices, plus the two negatives.
        self.assertGreater(first["graph.claw_number_calls"], 4 * 400)
        self.assertEqual(set(layer(first, SCAN_LAYERS).values()), {0})


if __name__ == "__main__":
    run.OUT.mkdir(parents=True, exist_ok=True)
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark's derived numbers.

    python3 perfbench/test_derived.py                 # built-in cases
    python3 perfbench/test_derived.py run-output.txt  # also a saved run

Every derived number run.py prints (throughputs, dkernel.gflops,
plan_cache.hit_ratio, trace.overhead_frac, ...) must be recomputable from
base counts printed in the same output.  The built-in cases show the check
accepts a consistent report and rejects one whose ratio contradicts its own
bases.  Given saved run.py outputs, it re-derives their numbers from the
"report" line each one carries.
"""
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import check_derived  # noqa: E402


def metric(v, unit="s"):
    return {"value": v, "unit": unit}


def consistent_report():
    flops, kernel_s = 7.3e9, 1.25
    return {
        "metrics": {
            "solve_panel_rhs_per_s": metric(64 / 0.4, "solves/s"),
            "jobs_per_s": metric(100 / 15.0, "jobs/s"),
            "job_p50_s": metric(0.25),
            "job_p90_s": metric(0.43),
            "dkernel.flops": metric(flops, "flop"),
            "solver.kernel_s": metric(kernel_s),
            "dkernel.gflops": metric(flops / kernel_s / 1e9, "Gflop/s"),
            "plan_cache.hits": metric(80, "count"),
            "plan_cache.misses": metric(20, "count"),
            "plan_cache.hit_ratio": metric(0.8, "ratio"),
            "trace.overhead_frac": metric((1.1 - 1.0) / 1.0, "ratio"),
        },
        "bases": {
            "panel_rhs": 64, "panel_median_s": 0.4,
            "jobs_completed": 100, "stream_wall_s": 15.0,
            "job_tail_quantile": 0.9,
            "trace.factorize_traced_s": 1.1,
            "trace.factorize_untraced_s": 1.0,
        },
    }


class DerivedNumbers(unittest.TestCase):
    def test_consistent_report_passes(self):
        self.assertEqual(check_derived(consistent_report()), [])

    def test_ratio_contradicting_its_bases_is_caught(self):
        # A panel throughput that does not follow from the printed panel
        # time, like a "speedup" printed beside throughputs that show a
        # slowdown.
        r = consistent_report()
        r["metrics"]["solve_panel_rhs_per_s"]["value"] *= 1.35
        problems = check_derived(r)
        self.assertEqual(len(problems), 1)
        self.assertIn("solve_panel_rhs_per_s", problems[0])

    def test_every_derived_number_is_checked(self):
        for name in ("jobs_per_s", "dkernel.gflops", "plan_cache.hit_ratio",
                     "trace.overhead_frac"):
            r = consistent_report()
            r["metrics"][name]["value"] += 0.01
            self.assertTrue(check_derived(r), name)

    def test_missing_base_is_reported(self):
        r = consistent_report()
        del r["bases"]["stream_wall_s"]
        self.assertIn("jobs_per_s: base 'stream_wall_s' not printed",
                      check_derived(r))

    def test_tail_below_median_is_reported(self):
        r = consistent_report()
        r["metrics"]["job_p90_s"]["value"] = 0.1
        self.assertIn("job_p90_s below job_p50_s", check_derived(r))


def check_saved(path):
    """Re-derive the numbers of a saved run.py output; returns problems."""
    for line in Path(path).read_text().splitlines():
        if line.startswith("report "):
            return check_derived(json.loads(line[len("report "):]))
    return [f"{path}: no report line"]


if __name__ == "__main__":
    saved = sys.argv[1:]
    failures = {p: check_saved(p) for p in saved}
    for p, problems in failures.items():
        print(f"{p}: {'ok' if not problems else problems}")
    result = unittest.main(argv=sys.argv[:1], exit=False).result
    sys.exit(0 if result.wasSuccessful() and
             not any(failures.values()) else 1)

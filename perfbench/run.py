#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the PaStiX reproduction.

    python3 perfbench/run.py --workload solid-p2 --seed 1 --seconds 45 --trace 0

Run from the repository root.  Builds perfbench/ (the solver library from
src/ plus the e2e binary) into .bench_build/perfbench, runs one workload,
echoes the e2e report, re-derives every derived number from the
printed base counts, and prints one JSON result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Exits non-zero when any correctness gate or derived-number
check fails, or when the solver sources are missing.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("solid-p1", "solid-p2", "shell-steps", "service-mix")
E2E_TIMEOUT_S = 170

# Every derived number e2e prints, recomputed from numbers it also
# prints.  Keys may name metrics or base counts.
DERIVED = {
    "solve_panel_rhs_per_s": lambda v: v["panel_rhs"] / v["panel_median_s"],
    "jobs_per_s": lambda v: v["jobs_completed"] / v["stream_wall_s"],
    "dkernel.gflops":
        lambda v: v["dkernel.flops"] / v["solver.kernel_s"] / 1e9,
    "plan_cache.hit_ratio": lambda v: v["plan_cache.hits"] /
        (v["plan_cache.hits"] + v["plan_cache.misses"]),
    "trace.overhead_frac": lambda v: (v["trace.factorize_traced_s"] -
        v["trace.factorize_untraced_s"]) / v["trace.factorize_untraced_s"],
    "core.factor_mb": lambda v: v["symbolic.nnz_blocks"] * 8 / 1e6,
    "rt.message_mb": lambda v: v["rt.message_bytes"] / 1e6,
    "core.refill_s":
        lambda v: v["core.refactorize_s"] - v["core.refactorize_factor_s"],
    "job_tail_quantile":
        lambda v: max(0.5, min(0.9, 1.0 - 10.0 / v["jobs_completed"])),
}


def check_derived(report):
    """Problems found re-deriving the report's derived numbers (empty = ok)."""
    values = dict(report.get("bases", {}))
    values.update({k: m["value"] for k, m in report["metrics"].items()})
    problems = []
    for name, formula in DERIVED.items():
        if name not in values:
            continue
        try:
            expect = formula(values)
        except KeyError as e:
            problems.append(f"{name}: base {e} not printed")
            continue
        except ZeroDivisionError:
            problems.append(f"{name}: base count is zero")
            continue
        got = values[name]
        if abs(got - expect) > 1e-9 * max(abs(expect), 1e-300):
            problems.append(f"{name} = {got!r} but its bases give {expect!r}")
    if "job_p50_s" in values and values["job_p90_s"] < values["job_p50_s"]:
        problems.append("job_p90_s below job_p50_s")
    return problems


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text())
    return {m["name"] for m in data["per_layer" if trace else "end_to_end"]}


def source_digest():
    """SHA-256 over the solver and benchmark sources: the build's identity
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build():
    """Configure once, then build incrementally.  Output goes to stderr."""
    if not (ROOT / "src" / "core" / "pastix.hpp").is_file():
        sys.exit("perfbench: solver sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD_DIR / "e2e"


def run_all(args):
    """Every workload in turn, each in its own process; the last line sums
    them, with metrics keyed <workload>.<metric>."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        print(f"== {w}\n{proc.stdout}", end="")
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.exit(f"perfbench: {w} printed no result")
        r = json.loads(lines[-1])
        total["correct"] &= r["correct"]
        total["attempted"] += r["attempted"]
        total["failed"] += r["failed"]
        total["metrics"].update(
            {f"{w}.{k}": m for k, m in r["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    proc = subprocess.run(
        [str(exe), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=E2E_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write(proc.stderr)
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"perfbench: e2e exited {proc.returncode} without a "
                 "report")
    for line in lines[:-1]:
        print(line)
    print("report " + lines[-1])  # kept so a saved output can be re-checked
    report = json.loads(lines[-1])

    # Two checks of our own on top of the e2e gates: the derived
    # numbers re-derive from their bases, and the metric set is the one
    # BENCHMARK.json promises.
    problems = [f"derived-number check: {p}" for p in check_derived(report)]
    failed = report["failed"] + bool(problems)
    expected = expected_metrics(args.trace)
    if expected is not None and set(report["metrics"]) != expected:
        failed += 1
        problems.append("metric set differs from BENCHMARK.json: missing "
                        f"{sorted(expected - set(report['metrics']))}, extra "
                        f"{sorted(set(report['metrics']) - expected)}")
    attempted = report["attempted"] + 2
    if proc.returncode != 0 and failed == 0:
        failed = 1
        problems.append(f"e2e exited {proc.returncode}")

    info = dict(report["info"])
    info.update({"nproc": str(os.cpu_count()), "cpu_model": cpu_model(),
                 "git_commit": git_commit(), "source_digest": source_digest(),
                 "python": platform.python_version()})
    for k in sorted(info):
        print(f"info   {k} = {info[k]}")
    print(f"failed_frac = {failed / attempted!r} ratio "
          f"({failed} failed / {attempted} attempted)")
    for p in problems:
        print(f"FAILED {p}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in report["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the padic-forms isotropy pipeline and lemma sweeps.

    python3 perfbench/run.py --workload below-threshold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ./src.
The launcher measures set-up time in fresh processes, runs the workload
in one more fresh process (perfbench/worker.py), prints every metric by
name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the JSON metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics.  The exit code is 0
only when every output was checked and found correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 3  # fresh processes timed per run, the workload's own included
WORKER_TIMEOUT_S = 150

# units of the metrics printed besides the JSON ones
REPORT_UNITS = {
    "forms_per_s": "1/s",
    "profiles_per_s": "1/s",
    "solve_p50_ms": "ms",
    "solve_p90_ms": "ms",
    "recheck_per_s": "1/s",
    "inconclusive_share": "share",
    "error_share": "share",
    "forms": "count",
    "passes": "count",
}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one worker thread: native libraries must not start pools of their own
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="padic-forms benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "padic_forms", "__init__.py")):
        sys.stderr.write("run from the root of a padic-forms checkout (no src/padic_forms here)\n")
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env(root)
    common = ["--workload", args.workload]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(common + ["--setup-only"], env)["setup_s"])
    res = run_worker(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], env)
    got = res["metrics"]
    if not args.trace:
        setups.append(got["setup_s"])
        got["setup_s"] = statistics.median(setups)

    units = {m["name"]: m["unit"] for m in wanted}
    units.update({k: v for k, v in REPORT_UNITS.items() if k in got and k not in units})
    for name in sorted(got):
        if name in units:
            print(f"{args.workload:16s} {name:34s} {got[name]!r:>24} {units[name]}")
    for problem in res["problems"]:
        print(f"{args.workload:16s} FAILED {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        sys.stderr.write(f"metrics not measured: {missing}\n")
        return 2
    correct = res["failed"] == 0 and res["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build bench_simcore from source and run one of its workloads.

Usage, from the root of a checkout:

    python3 bench/simcore/run.py --workload W --seed N --seconds T --trace 0|1

Configures and builds this directory as a standalone CMake project over
../../src in .bench_build/simcore (or $CARGO_TARGET_DIR/simcore), runs
the workload for at least three repetitions and until T host seconds
have passed, and prints one JSON object as the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (the run then adds the traced
pass). Build and benchmark logs go to standard error. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR")
    base = Path(base) if base else ROOT / ".bench_build"
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "simcore"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "--target", "bench_simcore",
         "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    build(out)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    result_path = results / f"{tag}.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [str(out / "bench_simcore"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--json", str(result_path),
           "--spans", str(results / f"{tag}.spans.json")]
    if args.trace:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_simcore ran longer than {RUN_TIMEOUT_S} s")
    if not result_path.is_file():
        fail(f"bench_simcore wrote no result (exit {proc.returncode})")

    report = json.loads(result_path.read_text())
    (wl,) = [w for w in report["workloads"] if w["name"] == args.workload]
    metrics = {}
    for m in wanted:
        got = wl["metrics"].get(m["name"])
        if got is None:
            fail(f"{args.workload} reported no {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} unit {got['unit']!r}, expected {m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(report["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": wl["attempted"],
                      "failed": wl["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

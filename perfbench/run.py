#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the `perfbench` program (the library from ../src plus perfbench/cpp)
into .bench_build at the repository root, then runs workloads, each in its
own process:

    python3 perfbench/run.py --workload solve|serve|churn|heal|all \
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Untraced runs report the end-to-end
metrics of BENCHMARK.json, traced runs its per-layer metrics and write a
Chrome trace to .bench_build/traces/.  The exit code is nonzero when the
build fails, an op's output fails its check, or the checker self-test does
not count its deliberately broken output.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["solve", "serve", "churn", "heal"]
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(BUILD), "--target", "perfbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, args):
    """Runs one workload in its own process; returns (exit code, result)."""
    command = [str(BUILD / "perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print("\n".join(lines))
        print(f"run.py: {workload} printed no result", file=sys.stderr)
        return proc.returncode or 1, None
    missing = expected_metrics(args.trace) - set(result["metrics"])
    if missing:
        print("\n".join(lines[:-1]))
        print(f"run.py: {workload} did not report {sorted(missing)}",
              file=sys.stderr)
        return 1, None
    print("\n".join(lines), flush=True)
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    build()

    if args.workload != "all":
        sys.exit(run_workload(args.workload, args)[0])

    # Every workload in its own process; the summary keys metrics by
    # workload.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(workload, args)
        worst = worst or code
        if result is None:
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    sys.exit(worst)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds epm_bench from source, runs one workload, and prints its result.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The build and the run's outputs (result.json, trace_<workload>.json) live in
.bench_build/ at the repository root. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where metrics are the
end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer metrics
(--trace 1). Build output goes to stderr. Exits non-zero without printing a
result when the build or the run fails.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configuring the benchmark failed")
    built = subprocess.run(["cmake", "--build", BUILD, "--target", "epm_bench", "-j", jobs],
                           stdout=sys.stderr)
    if built.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(BUILD, "epm_bench")


def run(exe, args):
    out = os.path.join(BUILD, "result.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out]
    if args.trace:
        cmd.append("--trace")
    # Own process group, so a timeout stops epm_bench and its workload child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    # 3 = a rep failed its output check: still a result, with correct=false.
    if proc.returncode not in (0, 3) or not lines[-1].startswith("{"):
        fail(f"epm_bench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])["workloads"][args.workload]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = run(build(), args)

    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or not isinstance(got["value"], (int, float)) \
                or not math.isfinite(got["value"]) or got["unit"] != metric["unit"]:
            fail(f"{args.workload} reported no valid {metric['name']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

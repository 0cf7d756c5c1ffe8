#!/usr/bin/env python3
"""Self-test of epm_bench, run by ctest in the benchmark build:

    python3 smoke_test.py <path/to/epm_bench> <path/to/BENCHMARK.json>

Checks, on the shrunken --smoke inputs:
  * every metric BENCHMARK.json names is printed with a finite value for
    every workload (untraced and traced passes), and every trace file is
    Chrome trace-event JSON;
  * a tampered expected digest fails every rep: failed_rep_frac = 1, exit 3;
  * bad command lines exit 2 with a one-line diagnostic.
"""
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}")


def run(exe, *args):
    return subprocess.run([exe, *args], capture_output=True, text=True, timeout=120)


def check_metrics(result, names, label):
    for workload, entry in result["workloads"].items():
        for name in names:
            metric = entry["metrics"].get(name)
            value = None if metric is None else metric.get("value")
            check(isinstance(value, (int, float)) and math.isfinite(value),
                  f"{label}: {workload} prints no finite {name}")


def main():
    exe, benchmark = sys.argv[1], sys.argv[2]
    with open(benchmark) as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        out = os.path.join(tmp, "untraced.json")
        proc = run(exe, "--smoke", "--out", out)
        check(proc.returncode == 0, f"untraced smoke exit {proc.returncode}: {proc.stderr}")
        with open(out) as f:
            untraced = json.load(f)
        check(len(untraced["workloads"]) == len(spec["workloads"]), "untraced: workload count")
        check_metrics(untraced, [m["name"] for m in spec["end_to_end"]] + ["failed_rep_frac"],
                      "untraced")

        out = os.path.join(tmp, "traced.json")
        proc = run(exe, "--smoke", "--trace", "--out", out)
        check(proc.returncode == 0, f"traced smoke exit {proc.returncode}: {proc.stderr}")
        with open(out) as f:
            traced = json.load(f)
        check_metrics(traced, [m["name"] for m in spec["per_layer"]], "traced")
        for workload in traced["workloads"]:
            with open(os.path.join(tmp, f"trace_{workload}.json")) as f:
                events = json.load(f)["traceEvents"]
            check(any(e.get("ph") == "X" for e in events), f"trace_{workload}.json has no spans")

        with open(os.path.join(HERE, "expected_seed42.json")) as f:
            expected = json.load(f)
        expected["smoke"]["fig4_week"]["digest"] = "0x0123456789abcdef"
        tampered = os.path.join(tmp, "tampered.json")
        with open(tampered, "w") as f:
            json.dump(expected, f)
        out = os.path.join(tmp, "tampered_result.json")
        proc = run(exe, "--smoke", "--workload", "fig4_week", "--expected", tampered, "--out", out)
        check(proc.returncode == 3, f"tampered digest exit {proc.returncode}, want 3")
        with open(out) as f:
            frac = json.load(f)["workloads"]["fig4_week"]["metrics"]["failed_rep_frac"]["value"]
        check(frac == 1, f"tampered digest failed_rep_frac {frac}, want 1")

        for args in (["--workload", "no_such_workload"], ["--seed", "abc"], ["--seed", "-3"],
                     ["--out", os.path.join(tmp, "no_such_dir", "result.json")]):
            proc = run(exe, "--smoke", *args)
            lines = proc.stderr.strip().split("\n")
            check(proc.returncode == 2 and len(lines) == 1 and lines[0].startswith("epm_bench: "),
                  f"{' '.join(args)}: exit {proc.returncode}, stderr {proc.stderr!r}")

    print("smoke test", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

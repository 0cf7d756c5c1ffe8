#!/usr/bin/env python3
"""Compares two epm_bench result files against the bounds in BENCHMARK.json.

    python3 benchmark/agree.py BASE.json CANDIDATE.json

BASE and CANDIDATE are files written by `epm_bench --out` (untraced pass).
For every workload in both and every end_to_end metric of BENCHMARK.json,
plus failed_rep_frac, prints one line:

    <workload> <metric> ok|worse|unresolved  <base> -> <candidate> (<change>)

worse:      the candidate's median is worse than the base's by more than the
            metric's bound (failed_rep_frac: any increase);
unresolved: either run's p25-p75 spread, as a share of its median, is wider
            than the bound, so the comparison cannot tell;
ok:         otherwise.

Exits 0 when every line is ok, 1 otherwise, 2 on bad input.
"""
import json
import os
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def spread(metric):
    if "p25" not in metric or metric["value"] == 0:
        return 0.0
    return abs(metric["p75"] - metric["p25"]) / abs(metric["value"])


def verdict(spec, base, cand):
    if spread(base) > spec["bound"] or spread(cand) > spec["bound"]:
        return "unresolved"
    change = cand["value"] / base["value"] - 1.0
    if spec["better"] == "lower":
        return "worse" if change > spec["bound"] else "ok"
    return "worse" if change < -spec["bound"] else "ok"


def load(path):
    try:
        with open(path) as f:
            return json.load(f)["workloads"]
    except (OSError, ValueError, KeyError) as e:
        print(f"agree.py: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    with open(BENCHMARK) as f:
        specs = json.load(f)["end_to_end"]
    base, cand = load(sys.argv[1]), load(sys.argv[2])
    common = [w for w in base if w in cand]
    if not common:
        print("agree.py: the files share no workload", file=sys.stderr)
        sys.exit(2)

    all_ok = True
    for workload in common:
        b, c = base[workload]["metrics"], cand[workload]["metrics"]
        rows = []
        for spec in specs:
            name = spec["name"]
            rows.append((name, verdict(spec, b[name], c[name]), b[name]["value"],
                         c[name]["value"]))
        bf, cf = b["failed_rep_frac"]["value"], c["failed_rep_frac"]["value"]
        rows.append(("failed_rep_frac", "worse" if cf > bf else "ok", bf, cf))
        for name, result, bv, cv in rows:
            all_ok = all_ok and result == "ok"
            change = f"{(cv / bv - 1.0) * 100.0:+.1f}%" if bv else f"{cv - bv:+g}"
            print(f"{workload} {name} {result}  {bv:.6g} -> {cv:.6g} ({change})")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()

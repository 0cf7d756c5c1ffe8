#!/usr/bin/env python3
"""Where the time goes, from the trace files of `epm_bench --trace`.

    python3 benchmark/breakdown.py out/trace_<workload>.json...

Spans are grouped by their root: a traced rep is the root "rep", and each
ablation or engine drive is a root of its own. For every root name, prints
the self time of each span name beneath it (its duration minus what its
child spans cover) as a share of the roots' total, largest first, as a
markdown table. Self time of "rep" itself is the benchmark's own work
between layer calls (building inputs, digests).
"""
import json
import sys
from collections import defaultdict


def breakdown(path):
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    by_id = {e["args"]["id"]: e for e in events}
    child_us = defaultdict(float)
    for e in events:
        child_us[e["args"]["parent"]] += e["dur"]

    def root(e):
        while e["args"]["parent"] in by_id:
            e = by_id[e["args"]["parent"]]
        return e

    totals = {}  # root name -> [total us, count]
    rows = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))  # root -> name -> [self us, calls]
    for e in events:
        r = root(e)
        if r is e:
            totals.setdefault(e["name"], [0.0, 0])
            totals[e["name"]][0] += e["dur"]
            totals[e["name"]][1] += 1
        row = rows[r["name"]][e["name"]]
        row[0] += e["dur"] - child_us[e["args"]["id"]]
        row[1] += 1

    print(f"### {path}\n")
    print("| root (count, ms each) | span | calls | self ms | share |")
    print("|---|---|---|---|---|")
    for name, (total_us, count) in totals.items():
        label = f"`{name}` ({count}, {total_us / count / 1e3:.4g})"
        for span, (self_us, calls) in sorted(rows[name].items(), key=lambda kv: -kv[1][0]):
            print(f"| {label} | `{span}` | {calls} | {self_us / 1e3:.4g} | "
                  f"{100.0 * self_us / total_us:.1f}% |")
            label = ""
    print()


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        breakdown(path)


if __name__ == "__main__":
    main()

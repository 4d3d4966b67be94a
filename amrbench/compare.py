#!/usr/bin/env python3
"""Compare two result sets of the layered AMR benchmark.

    python3 amrbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run.py result lines (run.py appends them to
.bench_results/results.jsonl; copy it aside between commits). Only
untraced runs count. For every workload and end-to-end metric in
BENCHMARK.json the script prints each side's median and quartiles and
one verdict:

  better        the change wins at least 9 of 10 pairs (ties count for
                neither) and the medians differ by more than the
                parent's interquartile range;
  worse         the change's median is worse than the parent's by more
                than the metric's bound;
  unresolved    the parent's own spread exceeds the bound, and not every
                change run beats every parent run;
  within bound  otherwise.

Runs pair up in file order per workload, so make them alternating:
parent, change, change, parent, ... with the same seeds on both sides.
The exit code is 1 when any verdict is "worse".
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            if r.get("trace") == 0:
                runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, sign):
    """sign = +1 when higher is better, -1 when lower is better."""
    q1, med_a, q3 = quartiles(parent)
    med_b = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if (b - a) * sign > 0)
    spread = (q3 - q1) / abs(med_a) if med_a else 0.0
    gap = (med_b - med_a) * sign
    if spread > bound:
        if min(b * sign for b in change) > max(a * sign for a in parent):
            return "better", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if pairs and wins >= 0.9 * len(pairs) and gap > q3 - q1:
        return "better", wins, len(pairs)
    if -gap > bound * abs(med_a):
        return "worse", wins, len(pairs)
    return "within bound", wins, len(pairs)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SPEC) as f:
        spec = json.load(f)
    parent, change = load(argv[1]), load(argv[2])
    worse = False
    print("%-14s %-16s %-44s %-44s %7s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        if name not in parent or name not in change:
            print("%-14s (no untraced runs on both sides)" % name)
            continue
        for m in spec["end_to_end"]:
            metric = m["name"]
            a = [r["metrics"][metric]["value"] for r in parent[name]
                 if metric in r["metrics"]]
            b = [r["metrics"][metric]["value"] for r in change[name]
                 if metric in r["metrics"]]
            if not a or not b:
                continue
            sign = 1 if m["better"] == "higher" else -1
            v, wins, n = verdict(a, b, m["bound"], sign)
            worse = worse or v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print("%-14s %-16s %-44s %-44s %3d/%-3d  %s" % (
                name, metric,
                "%.5g [%.5g, %.5g] %s" % (qa[1], qa[0], qa[2], m["unit"]),
                "%.5g [%.5g, %.5g] %s" % (qb[1], qb[0], qb[2], m["unit"]),
                wins, n, v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Compare two sets of benchmark result files: a parent commit and a change.

Usage:

    python3 perfbench/compare.py --base PARENT_RESULTS --change CHANGE_RESULTS

Each directory holds the result files run.py leaves in <build>/results
(<workload>-seed<n>-trace<0|1>.result.json). Runs of the two sides with the
same workload and seed form a pair. For every workload and metric it prints
both sides' medians and quartiles, the share of pairs each side won (ties
count for neither), and a verdict:

  improved    the change won at least 9/10 of all pairs, and the medians
              differ by more than the parent's own quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound, and the parent's quartile spread is within
              the bound (or every run of the change is worse than every run
              of the parent); for the failed-operation count: it rose
  unresolved  the parent's quartile spread is wider than the bound, so a
              change cannot be told apart from noise (unless every run of
              the change beats every run of the parent)
  unchanged   none of the above

Verdicts are given only for the metrics BENCHMARK.json lists with a bound
(its end-to-end metrics), with their bounds and directions, plus one for the
failed-operation count. Every other metric a result carries is printed
without a verdict. The exit status is 1 when any verdict is worse, so the
helper can gate a change.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
FAILED = "failed operations"
NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.result\.json$")


def load(directory, trace):
    """{workload: {seed: {metric: value}}} for one side."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.result.json"))):
        m = NAME.match(os.path.basename(path))
        if not m or int(m.group("trace")) != trace:
            continue
        with open(path) as f:
            res = json.load(f)
        metrics = {k: v["value"] for k, v in res["metrics"].items()}
        metrics[FAILED] = res["failed"]
        out.setdefault(m.group("workload"), {})[int(m.group("seed"))] = metrics
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, pairs, better, bound):
    """Applies the comparison rule to one metric of one workload."""
    sign = 1 if better == "higher" else -1
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    wins_c = sum(1 for b, c in pairs if sign * (c - b) > 0)
    wins_b = sum(1 for b, c in pairs if sign * (b - c) > 0)
    n = len(pairs)
    spread = (b3 - b1) / abs(bmed) if bmed else 0.0
    diff = sign * (cmed - bmed)  # > 0: the change is better
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    all_worse = max(sign * c for c in change) < min(sign * b for b in base)
    if n and wins_c >= 0.9 * n and abs(cmed - bmed) > (b3 - b1) and diff > 0:
        v = "improved"
    elif bmed and -diff / abs(bmed) > bound and (spread <= bound or all_worse):
        v = "worse"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, wins_b, wins_c, n


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the parent's result directory")
    ap.add_argument("--change", required=True, help="the change's result directory")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="compare traced (per-layer) results instead")
    args = ap.parse_args()

    with open(BENCHMARK) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    base, change = load(args.base, args.trace), load(args.change, args.trace)
    worse = False
    fmt = lambda q: "%.4g/%.4g/%.4g" % q
    for workload in sorted(set(base) | set(change)):
        b_runs, c_runs = base.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(b_runs) & set(c_runs))
        print("== %s: %d parent runs, %d change runs, %d pairs" % (
            workload, len(b_runs), len(c_runs), len(seeds)))
        if not b_runs or not c_runs:
            print("   (one side has no runs)")
            continue
        names = sorted({k for r in b_runs.values() for k in r} & {k for r in c_runs.values() for k in r})
        print("   %-30s %-28s %-28s %9s %-10s" % ("metric", "parent q1/med/q3", "change q1/med/q3",
                                                "won p/c", "verdict"))
        for name in names:
            bv = [r[name] for r in b_runs.values() if name in r]
            cv = [r[name] for r in c_runs.values() if name in r]
            pairs = [(b_runs[s][name], c_runs[s][name]) for s in seeds
                     if name in b_runs[s] and name in c_runs[s]]
            if name == FAILED:
                # Any rise in failed operations is worse.
                v = "worse" if sum(cv) > sum(bv) else "unchanged"
                wb, wc = sum(1 for b, c in pairs if c > b), sum(1 for b, c in pairs if c < b)
            elif name in specs:
                spec = specs[name]
                v, wb, wc, _ = verdict(bv, cv, pairs, spec["better"], spec["bound"])
            else:
                v, wb, wc = "", 0, 0
            worse |= v == "worse"
            won = "%4d/%-4d" % (wb, wc) if v else ""
            print("   %-30s %-28s %-28s %9s %-10s" % (
                name, fmt(quartiles(bv)), fmt(quartiles(cv)), won, v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

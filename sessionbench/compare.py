#!/usr/bin/env python3
"""usage: python3 sessionbench/compare.py PARENT_DIR CHANGE_DIR

Compares two sets of benchmark records. Each directory holds the records
`run.py --out DIR` saves, for the same seeds. For every workload and
end-to-end metric it prints both sides' median and quartiles, the share of
same-seed pairs the change won, and a verdict.

Timing metrics follow the median-and-spread rule:
- gain: at least ten pairs, the change wins at least 9 in 10 of them, and
  the medians differ by more than the parent's own quartile distance;
- regression: the change's median is worse than the parent's by more than
  the metric's bound;
- unresolved: in place of unchanged, when the parent's spread is wider than
  the bound and the runs do not separate;
- unchanged: none of the above.

The quality metrics (QUALITY below) are a fixed function of the seed, so
they are compared seed by seed: the change regresses if it is worse on any
seed, gains if it is better on some seed and worse on none, and is
unchanged only when every seed gives the same value.

It then prints the per-layer medians of the traced runs side by side, and
exits 1 if any metric regressed.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# End-to-end metrics that every run of one seed reproduces exactly.
QUALITY = {"killed_recall", "found_recall", "labels_per_match"}


def load(directory):
    """{(workload, traced): {seed: {metric: value}}}"""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            record = json.load(f)
        values = {name: m["value"] for name, m in record["metrics"].items()}
        runs.setdefault((record["workload"], record["trace"]), {})[
            record["seed"]] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(runs):
    q1, median, q3 = quartiles(list(runs.values()))
    return "%.4g [%.4g, %.4g]" % (median, q1, q3)


def verdict(parent, change, better, bound):
    """Applies the median-and-spread rule of the module docstring to two
    {seed: value} maps; returns (won, spread, worse, verdict)."""
    sign = 1 if better == "higher" else -1  # sign * value rises when better.
    p1, pm, p3 = quartiles(list(parent.values()))
    cm = statistics.median(change.values())
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    won = wins / len(seeds) if seeds else 0.0
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    worse = sign * (pm - cm) / abs(pm) if pm else 0.0
    separated = (min(sign * v for v in change.values()) >
                 max(sign * v for v in parent.values()))
    if len(seeds) >= 10 and won >= 0.9 and sign * (cm - pm) > p3 - p1:
        result = "gain"
    elif worse > bound:
        result = "regression"
    elif spread > bound and not separated:
        result = "unresolved"
    else:
        result = "unchanged"
    return won, spread, worse, result


def quality_verdict(parent, change, better):
    """Seed-by-seed rule for the QUALITY metrics; returns (won, spread,
    worse, verdict) like verdict(), with `worse` the largest relative loss
    on one seed."""
    sign = 1 if better == "higher" else -1
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return 0.0, 0.0, 0.0, "unresolved"
    deltas = [sign * (change[s] - parent[s]) / abs(parent[s])
              if parent[s] else sign * (change[s] - parent[s])
              for s in seeds]
    won = sum(1 for d in deltas if d > 0) / len(seeds)
    worse = max(0.0, -min(deltas))
    if worse > 0:
        result = "regression"
    elif won > 0:
        result = "gain"
    else:
        result = "unchanged"
    return won, 0.0, worse, result


def main(argv):
    if len(argv) != 3:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    parent, change = load(argv[1]), load(argv[2])
    workloads = [w["name"] for w in spec["workloads"]]

    print("%-12s %-18s %27s %27s %6s %7s %7s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "won", "spread", "worse", "verdict"))
    regressions = 0
    for workload in workloads:
        p_runs = parent.get((workload, False), {})
        c_runs = change.get((workload, False), {})
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = {s: v[name] for s, v in p_runs.items() if name in v}
            c = {s: v[name] for s, v in c_runs.items() if name in v}
            if not p or not c:
                print("%-12s %-18s missing runs" % (workload, name))
                continue
            if name in QUALITY:
                won, spread, worse, result = quality_verdict(
                    p, c, metric["better"])
            else:
                won, spread, worse, result = verdict(p, c, metric["better"],
                                                     metric["bound"])
            regressions += result == "regression"
            print("%-12s %-18s %27s %27s %5.0f%% %6.1f%% %6.1f%%  %s" % (
                workload, name, fmt(p), fmt(c), 100 * won, 100 * spread,
                100 * worse, result))

    print("\nper-layer medians of the traced runs")
    for workload in workloads:
        p_runs = parent.get((workload, True), {})
        c_runs = change.get((workload, True), {})
        for metric in spec["per_layer"]:
            name = metric["name"]
            p = [v[name] for v in p_runs.values() if name in v]
            c = [v[name] for v in c_runs.values() if name in v]
            if not p or not c:
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            delta = "%+.1f%%" % (100 * (cm - pm) / abs(pm)) if pm else ""
            print("%-12s %-32s %12.5g %12.5g %9s %s" % (
                workload, name, pm, cm, delta, metric["unit"]))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

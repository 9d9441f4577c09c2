#!/usr/bin/env python3
"""Runs the MatchCatcher session-level benchmark.

One workload, one process:

    python3 sessionbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds mc_bench on first use, runs it, checks its record and prints, as
the last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the per-layer
metrics, and the Chrome trace lands in .bench_build/sessionbench/traces/.
The JSON object is printed only when the run finished; a failed check
makes it say "correct": false.

Every workload:

    python3 sessionbench/run.py [--seed N] [--runs R] [--seconds S] [--out DIR]

runs each workload of BENCHMARK.json untraced and traced, each run in its
own process, for seeds N .. N+R-1; prints every metric by name with its
unit; saves each record under DIR for compare.py; and exits 1 if any
correctness check fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "sessionbench"
PROGRAM = BUILD / "mc_bench"
DEFAULT_SEED = 1
# A run must end within 180 s; leave room for start-up and the checks.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds mc_bench (a no-op when it is up to date);
    build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            raise BenchError("build failed: " + " ".join(step))


def check_trace(path):
    """The trace must be Chrome trace-event JSON with one complete event per
    span."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return "trace %s is not valid trace-event JSON: %s" % (path, e)
    if not events or any(e.get("ph") != "X" or e.get("dur", -1) < 0
                         for e in events):
        return "trace %s holds no or malformed events" % path
    return None


def run_workload(spec, workload, seed, seconds, trace):
    """Runs mc_bench once and returns its record, with the runner's own
    checks folded into `correct` and `errors`."""
    cmd = [str(PROGRAM), "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds]
    trace_path = BUILD / "traces" / ("%s-seed%d.json" % (workload, seed))
    if trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd.append("--trace=" + str(trace_path))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s" %
                         (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited with %d" % (workload, proc.returncode))
    record = json.loads(lines[-1])

    # mc_bench reports every metric it measured; a run reports the ones
    # BENCHMARK.json lists for its mode.
    errors = record["errors"]
    kind = "per_layer" if trace else "end_to_end"
    measured = record["metrics"]
    record["metrics"] = {}
    for m in spec[kind]:
        metric = measured.get(m["name"])
        if metric is None or metric["unit"] != m["unit"]:
            errors.append("metric %s (%s) is not in the record" %
                          (m["name"], m["unit"]))
            continue
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("metric %s has no value" % m["name"])
            metric["value"] = 0.0
        record["metrics"][m["name"]] = metric
    if trace:
        error = check_trace(trace_path)
        if error:
            errors.append(error)
    record["correct"] = record["correct"] and not errors
    return record


def result_line(record):
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    })


def print_record(record):
    print("%s seed %d (%s): correct=%s attempted=%d failed=%d" % (
        record["workload"], record["seed"],
        "traced" if record["trace"] else "untraced", record["correct"],
        record["attempted"], record["failed"]))
    for error in record["errors"]:
        print("  ERROR " + error)
    for name, m in record["metrics"].items():
        print("  %-32s %14.6g %-12s (%d samples)" % (
            name, m["value"], m["unit"], m["samples"]))


def print_summary(records):
    """Median and quartiles of every metric over the seeds, per workload."""
    by_key = {}
    for r in records:
        for name, m in r["metrics"].items():
            key = (r["workload"], r["trace"], name)
            by_key.setdefault(key, (m["unit"], []))[1].append(m["value"])
    print("\nsummary over %d record(s): median [q1, q3]" % len(records))
    for (workload, trace, name), (unit, values) in sorted(by_key.items()):
        q1 = q3 = values[0]
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        print("  %-12s %-32s %14.6g [%.6g, %.6g] %s" % (
            workload, name, statistics.median(values), q1, q3, unit))


def run_all(spec, args):
    build()
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    records = []
    for seed in range(args.seed, args.seed + args.runs):
        for workload in spec["workloads"]:
            for trace in (False, True):
                record = run_workload(spec, workload["name"], seed,
                                      args.seconds, trace)
                records.append(record)
                print_record(record)
                sys.stdout.flush()
                if out:
                    name = "%s-seed%d-trace%d.json" % (
                        workload["name"], seed, int(trace))
                    with open(out / name, "w") as f:
                        json.dump(record, f, indent=1)
    print_summary(records)
    failed = [r for r in records if not r["correct"]]
    if failed:
        print("%d run(s) failed a correctness check" % len(failed))
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds per workload when running every workload")
    parser.add_argument("--out", help="directory for the records")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload is None:
            return run_all(spec, args)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError("unknown workload " + args.workload)
        build()
        record = run_workload(spec, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    for error in record["errors"]:
        print("check failed: " + error, file=sys.stderr)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

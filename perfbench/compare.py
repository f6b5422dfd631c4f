#!/usr/bin/env python3
"""Summarize and compare benchmark runs recorded by perfbench/run.py.

    python3 perfbench/compare.py summary [--history FILE]
        Per workload and end-to-end metric: median, quartiles, and the
        spread (q3 - q1) / median against the metric's bound.
    python3 perfbench/compare.py check [--history FILE] [--baseline FILE]
        Compares the history's medians with the committed baseline, metric
        by metric, against BENCHMARK.json's bounds.  Exits 1 on a
        regression.
    python3 perfbench/compare.py record [--history FILE] [--baseline FILE]
        Writes the history's summary as the new baseline.

Runs are compared only when their machine fingerprints (nproc, CPU model,
compiler and version, flags, build type) are identical: the commands exit 2
otherwise, so one foreign or differently built run cannot move a baseline.
Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_HISTORY = os.path.join(ROOT, ".bench_results", "history.jsonl")
DEFAULT_BASELINE = os.path.join(ROOT, "perfbench", "baseline.json")


class FingerprintMismatch(Exception):
    pass


def load_history(path):
    with open(path) as history:
        return [json.loads(line) for line in history if line.strip()]


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        benchmark = json.load(spec)
    return {m["name"]: m for m in benchmark["end_to_end"]}


def common_fingerprint(records):
    """The one fingerprint every record shares; raises when they differ."""
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in records}
    if len(prints) != 1:
        raise FingerprintMismatch("runs come from %d different machines or builds:\n  %s"
                                  % (len(prints), "\n  ".join(sorted(prints))))
    return records[0]["fingerprint"]


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle if middle else float("inf")


def summarize(records):
    """{workload: {metric: {median, q1, q3, spread, runs}}} over untraced,
    correct runs."""
    by_workload = {}
    for r in records:
        if r["trace"] != 0 or not r["result"]["correct"]:
            continue
        metrics = by_workload.setdefault(r["workload"], {})
        for name, m in r["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    out = {}
    for workload, metrics in sorted(by_workload.items()):
        out[workload] = {}
        for name, values in metrics.items():
            if len(values) < 2:
                continue
            middle, q1, q3, share = spread(values)
            out[workload][name] = {"median": middle, "q1": q1, "q3": q3,
                                   "spread": share, "runs": len(values)}
    return out


def worse_by(metric, baseline, current):
    """How much worse `current` is than `baseline`, as a share of baseline."""
    change = (current - baseline) / baseline
    return change if metric["better"] == "lower" else -change


def cmd_summary(records, bounds):
    common_fingerprint(records)
    ok = True
    for workload, metrics in summarize(records).items():
        print(workload)
        for name, s in metrics.items():
            bound = bounds[name]["bound"]
            steady = name == "setup_s" or s["spread"] <= bound / 3
            ok = ok and steady
            print("  %-20s median %-14.6g q1 %-14.6g q3 %-14.6g spread %6.2f%% "
                  "(bound %4.1f%%, n=%d)%s"
                  % (name, s["median"], s["q1"], s["q3"], 100 * s["spread"],
                     100 * bound, s["runs"], "" if steady else "  NOT STEADY"))
    return 0 if ok else 1


def cmd_check(records, bounds, baseline_path):
    with open(baseline_path) as f:
        baseline = json.load(f)
    current_print = common_fingerprint(records)
    if current_print != baseline["fingerprint"]:
        raise FingerprintMismatch("history fingerprint %s differs from the baseline's %s"
                                  % (json.dumps(current_print, sort_keys=True),
                                     json.dumps(baseline["fingerprint"], sort_keys=True)))
    regressions = 0
    for workload, metrics in summarize(records).items():
        for name, s in metrics.items():
            base = baseline["workloads"].get(workload, {}).get(name)
            if base is None:
                continue
            worse = worse_by(bounds[name], base["median"], s["median"])
            verdict = "ok"
            if worse > bounds[name]["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            print("%-16s %-20s %-14.6g vs %-14.6g %+7.2f%% worse  %s"
                  % (workload, name, s["median"], base["median"], 100 * worse, verdict))
    return 1 if regressions else 0


def cmd_record(records, baseline_path):
    baseline = {"fingerprint": common_fingerprint(records),
                "workloads": summarize(records)}
    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote " + baseline_path)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=["summary", "check", "record"])
    parser.add_argument("--history", default=DEFAULT_HISTORY)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    args = parser.parse_args(argv)
    records = load_history(args.history)
    if not records:
        print("no runs in " + args.history, file=sys.stderr)
        return 1
    bounds = load_bounds()
    try:
        if args.command == "summary":
            return cmd_summary(records, bounds)
        if args.command == "check":
            return cmd_check(records, bounds, args.baseline)
        return cmd_record(records, args.baseline)
    except FingerprintMismatch as mismatch:
        print("refusing to compare: " + str(mismatch), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two directories of benchmark run reports.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmark/compare.py --repeatability RUNS_A RUNS_B

Run reports are the JSON files benchmark/run.py writes (by default into
.bench_build/reports/).  Parent and change runs are paired by workload
and seed; a comparison needs at least 10 pairs per workload, with the
side that ran first alternating.  One row per (metric, workload) gives
each side's median and quartiles, the pairs the change won, and a
verdict:

  gain           the change wins at least 9 of 10 pairs (ties count for
                 neither) and the medians differ by more than the
                 parent's interquartile distance;
  regression     the change's median is worse than the parent's by more
                 than the metric's bound in BENCHMARK.json;
  unresolved     a side's spread (interquartile distance over median)
                 exceeds the bound, and not every change run beats every
                 parent run;
  no regression  otherwise.

--repeatability checks two sets of runs of the same code: every spread
must stay within its metric's bound, and no median of the second set
may be worse than the first's by more than the bound.  Both modes exit
1 when a row fails.  The metrics and bounds are those of BENCHMARK.json
at the repository root.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_reports(directory):
    """Untraced run reports in `directory`, as parsed JSON objects."""
    reports = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            continue
        if (isinstance(report, dict)
                and report.get("schema") == "sealpaa.benchmark-run"
                and not report.get("traced")):
            reports.append(report)
    return reports


def by_workload(reports):
    groups = {}
    for report in reports:
        groups.setdefault(report["workload"], []).append(report)
    return groups


def quartiles(values):
    """(first quartile, median, third quartile), computed with
    statistics.quantiles(values, n=4)."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def better(a, b, direction):
    """True when value `a` reads strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def worse_share(change, parent, direction):
    """How much worse `change` is than `parent`, as a share of parent."""
    if not parent:
        return 0.0
    delta = change - parent if direction == "lower" else parent - change
    return delta / abs(parent)


def pair_runs(parent, change):
    """(parent, change) report pairs with the same seed, by seed."""
    change_by_seed = {report["seed"]: report for report in change}
    pairs = [(report, change_by_seed[report["seed"]]) for report in parent
             if report["seed"] in change_by_seed]
    return sorted(pairs, key=lambda pair: pair[0]["seed"])


def alternated(pairs):
    """True when parent and change ran first about equally often."""
    parent_first = sum(1 for p, c in pairs
                       if p.get("started_unix", 0) < c.get("started_unix", 0))
    return abs(2 * parent_first - len(pairs)) <= 1


def compare_metric(pairs, spec):
    """One comparison row for one (metric, workload)."""
    name, direction, bound = spec["name"], spec["better"], spec["bound"]
    parent = [p["metrics"][name] for p, _ in pairs]
    change = [c["metrics"][name] for _, c in pairs]
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    improvement = (p_med - c_med) if direction == "lower" else (c_med - p_med)
    gain = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and improvement > p_q3 - p_q1)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if len(pairs) < MIN_PAIRS:
        verdict = f"too few pairs ({len(pairs)} < {MIN_PAIRS})"
    elif not alternated(pairs):
        verdict = "pairs did not alternate"
    elif max(spread(parent), spread(change)) > bound:
        verdict = "gain" if gain and all_better else "unresolved"
    elif gain:
        verdict = "gain"
    elif worse_share(c_med, p_med, direction) > bound:
        verdict = "regression"
    else:
        verdict = "no regression"
    return {"metric": name, "parent": quartiles(parent),
            "change": quartiles(change), "wins": wins, "pairs": len(pairs),
            "verdict": verdict}


def repeatability_row(first, second, spec):
    """One row checking two sets of runs of the same code against a bound."""
    name, direction, bound = spec["name"], spec["better"], spec["bound"]
    a = [report["metrics"][name] for report in first]
    b = [report["metrics"][name] for report in second]
    spreads = (spread(a), spread(b))
    drift = worse_share(quartiles(b)[1], quartiles(a)[1], direction)
    return {"metric": name, "first": quartiles(a), "second": quartiles(b),
            "spreads": spreads, "drift": drift, "bound": bound,
            "ok": max(spreads) <= bound and drift <= bound}


def fmt(triple):
    q1, median, q3 = triple
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent_dir, change_dir, specs):
    parents = by_workload(load_reports(parent_dir))
    changes = by_workload(load_reports(change_dir))
    failed = False
    print("metric  workload  parent median [q1, q3]  change median [q1, q3]"
          "  wins/pairs  verdict")
    for workload in sorted(parents):
        pairs = pair_runs(parents[workload], changes.get(workload, []))
        for spec in specs:
            row = compare_metric(pairs, spec)
            failed = failed or row["verdict"] not in ("gain", "no regression")
            print(f"{spec['name']}  {workload}  {fmt(row['parent'])}  "
                  f"{fmt(row['change'])}  {row['wins']}/{row['pairs']}  "
                  f"{row['verdict']}")
    return 1 if failed else 0


def repeatability(first_dir, second_dir, specs):
    firsts = by_workload(load_reports(first_dir))
    seconds = by_workload(load_reports(second_dir))
    failed = False
    print("metric  workload  first median [q1, q3]  second median [q1, q3]"
          "  spreads  drift  bound  verdict")
    for workload in sorted(firsts):
        if workload not in seconds:
            print(f"-  {workload}  missing from {second_dir}  FAIL")
            failed = True
            continue
        for spec in specs:
            row = repeatability_row(firsts[workload], seconds[workload], spec)
            failed = failed or not row["ok"]
            print(f"{spec['name']}  {workload}  {fmt(row['first'])}  "
                  f"{fmt(row['second'])}  {row['spreads'][0]:.4f}/"
                  f"{row['spreads'][1]:.4f}  {row['drift']:+.4f}  "
                  f"{row['bound']}  {'ok' if row['ok'] else 'FAIL'}")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("first", help="parent runs (or first set)")
    parser.add_argument("second", help="change runs (or second set)")
    parser.add_argument("--repeatability", action="store_true",
                        help="both directories hold runs of the same code")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        specs = json.load(handle)["end_to_end"]
    if args.repeatability:
        return repeatability(args.first, args.second, specs)
    return compare(args.first, args.second, specs)


if __name__ == "__main__":
    sys.exit(main())

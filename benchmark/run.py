#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py                      # all workloads, one table
    python3 benchmark/run.py --trace 1            # all workloads, layer ladder
    python3 benchmark/run.py --workload fleet-mix --seed 7 --trace 0
    python3 benchmark/run.py --quick              # correctness smoke, <= 10 s

Every invocation first builds benchmark/ (a CMake project of its own)
into .bench_build/ at the repository root.  A single-workload run prints
the run's result as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics; the metrics are the
end-to-end metrics of BENCHMARK.json, or its per-layer metrics with
--trace (those of a layer the workload never reaches read 0 there and
"n/a" in the table).  Each run's full report (environment, details, all
metrics) is
also written to .bench_build/reports/ for benchmark/compare.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "benchmark")
BUILD = os.path.join(ROOT, ".bench_build")
CONFIG = os.path.join(HERE, "workloads.json")
# A run measures for --seconds plus set-up, warm-up and the precompute
# of expected responses; this bounds the whole run.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def build():
    """Configures (once) and builds the benchmark; exits 2 on failure."""
    configured = any(os.path.exists(os.path.join(BUILD, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("error: cannot configure the benchmark")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        log("error: cannot build the benchmark")
        sys.exit(2)


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True)
        return result.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload, seed, seconds, spans, reports):
    """Runs sealpaa_bench once; returns its report (None on failure)."""
    command = [os.path.join(BUILD, "sealpaa_bench"),
               f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}",
               f"--daemon={os.path.join(BUILD, 'sealpaad')}",
               f"--config={CONFIG}"]
    if spans:
        command.append(f"--trace={spans}")
    started = time.time()
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    if result.returncode != 0 or not lines:
        log(f"error: {workload} exited with code {result.returncode}")
        return None
    report = json.loads(lines[-1])
    report["environment"]["git_commit"] = git_commit()
    report["started_unix"] = started
    os.makedirs(reports, exist_ok=True)
    kind = "trace" if spans else "run"
    name = f"{workload}-seed{seed}-{kind}-{int(started * 1000)}.json"
    with open(os.path.join(reports, name), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return report


def metric_value(report, spec):
    """The run's value of a metric, or None for a per-layer metric of a
    layer the workload never reaches.  Every workload reports every
    end-to-end metric."""
    if spec["name"] in report["metrics"]:
        return report["metrics"][spec["name"]]
    if "bound" in spec:
        raise KeyError(f"run reported no {spec['name']}")
    return None


def contract_line(report, specs):
    """The result object: the named metrics with their units.  Its values
    must all be numbers, so a layer the workload never reaches reads 0:
    it did no work."""
    metrics = {}
    for spec in specs:
        value = metric_value(report, spec)
        metrics[spec["name"]] = {"value": 0 if value is None else value,
                                 "unit": spec["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def spans_path(trace, workload, seed):
    if trace in ("0", None):
        return None
    if trace != "1":
        return os.path.abspath(trace)
    os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
    return os.path.join(BUILD, "spans", f"{workload}-seed{seed}.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all")
    parser.add_argument("--seed", type=int, help="workload seed")
    parser.add_argument("--seconds", type=int, help="measured seconds")
    parser.add_argument("--trace", default="0",
                        help="0, 1, or a file for the spans (implies 1)")
    parser.add_argument("--quick", action="store_true",
                        help="correctness smoke over all workloads")
    parser.add_argument("--reports", default=os.path.join(BUILD, "reports"),
                        help="directory for the run reports")
    args = parser.parse_args()

    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(CONFIG)
    build()
    if args.quick:
        return subprocess.run(
            [os.path.join(BUILD, "sealpaa_bench"), "--quick",
             f"--daemon={os.path.join(BUILD, 'sealpaad')}",
             f"--config={CONFIG}"], timeout=RUN_TIMEOUT_S).returncode

    seed = args.seed if args.seed is not None else config["seeds"]["default"]
    seconds = args.seconds or benchmark["run_seconds"]
    traced = args.trace != "0"
    specs = benchmark["per_layer" if traced else "end_to_end"]
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None and args.workload not in names:
        log(f"error: unknown workload {args.workload}; one of {names}")
        return 2

    if args.workload is not None:
        report = run_once(args.workload, seed, seconds,
                          spans_path(args.trace, args.workload, seed),
                          args.reports)
        if report is None:
            return 1
        print(json.dumps(contract_line(report, specs)))
        return 0

    failed = False
    for workload in names:
        report = run_once(workload, seed, seconds,
                          spans_path(args.trace, workload, seed),
                          args.reports)
        if report is None:
            return 1
        row = [f"{workload:14s}", f"fail_ratio={report['fail_ratio']:.4g}"]
        for spec in specs:
            value = metric_value(report, spec)
            if value is None:
                row.append(f"{spec['name']}=n/a")
            else:
                row.append(f"{spec['name']}={value:.6g} {spec['unit']}")
        print("  ".join(row), flush=True)
        failed = failed or report["fail_ratio"] > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

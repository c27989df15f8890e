#!/usr/bin/env python3
"""Training-step benchmark of the S-Caffe functional substrate.

Builds the step program (Release) from this checkout's sources, runs one
workload or all of them, checks the training output, prints every metric by
name with its unit, and ends with one JSON line:

    python3 perfbench/run.py --workload cifar10_dp4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from
a separate traced run. README.md beside this file describes both.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import metrics
from stats import read_result, write_result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_build" / "runs"
RESULTS = ROOT / ".bench_build" / "results"
WORKLOADS = ("cifar10_single", "cifar10_dp4")
PROCESSES = 3  # an untraced run splits its seconds over this many processes
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def call(command, what, timeout=None):
    """Runs a command to completion; its output goes to stderr on failure."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as expired:
        raise BenchError("%s timed out after %ss" % (what, expired.timeout))
    except OSError as error:
        raise BenchError("%s: %s" % (what, error))
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise BenchError("%s failed with exit code %d" % (what, done.returncode))


def build():
    if not (ROOT / "src" / "core" / "distributed_solver.h").is_file():
        raise BenchError("runtime sources not found under %s" % (ROOT / "src"))
    if not (BUILD / "CMakeCache.txt").is_file():
        call(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             "cmake configure")
    call(["cmake", "--build", str(BUILD), "--target", "perfbench_step",
          "-j", str(os.cpu_count() or 1)], "cmake build")
    return BUILD / "perfbench_step"


def git_describe():
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def provenance(raw):
    config = raw["config"]
    session = raw["sessions"][-1]["provenance"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": config["cpu_model"],
        "isa": config["isa"],
        "build_type": config["build_type"],
        "git_describe": git_describe(),
        "ranks": config["ranks"],
        "math_threads": config["math_threads"],
        "global_batch": config["global_batch"],
        "variant": session["variant"],
        "eager_limit": session["eager_limit"],
        "bucket_plan": session["bucket_plan"],
        "coll_family": session["coll_family"],
    }


def run_step_program(binary, workload, seed, seconds, trace, stem):
    raw_path = RUNS / (stem + ".raw.json")
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--out", str(raw_path)]
    if trace:
        command += ["--spans", str(RUNS / (stem + ".spans.json"))]
    call(command, "perfbench_step " + workload, timeout=RUN_TIMEOUT_S)
    return json.loads(raw_path.read_text())


def run_workload(binary, workload, seed, seconds, trace):
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    if trace:
        raws = [run_step_program(binary, workload, seed, seconds, trace, stem)]
        spans = json.loads((RUNS / (stem + ".spans.json")).read_text())
        values, checks = metrics.per_layer(raws[0], spans)
        table = metrics.PER_LAYER
    else:
        raws = [run_step_program(binary, workload, seed, seconds / PROCESSES, trace,
                                "%s-p%d" % (stem, p)) for p in range(PROCESSES)]
        values, checks = metrics.end_to_end(raws)
        table = metrics.END_TO_END
    if values is None:
        raise BenchError("%s: no timed steps; failed checks: %s" %
                         (workload, ", ".join(k for k, ok in checks.items() if not ok)))
    raw = raws[-1]
    failed = sum(1 for ok in checks.values() if not ok)
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for r in raws for s in r["sessions"]),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": table[name][0]} for name in table},
        "checks": checks,
        "provenance": provenance(raw),
        "loss_hash": metrics.loss_hash(raw["sessions"][-1]),
    }
    write_result(RESULTS / (stem + ".json"), result)
    return read_result(RESULTS / (stem + ".json"))


def report(result):
    print("== %s  seed %d  trace %d" % (result["workload"], result["seed"], result["trace"]))
    print("   " + "  ".join("%s=%s" % item for item in result["provenance"].items()))
    table = metrics.PER_LAYER if result["trace"] else metrics.END_TO_END
    for name, (unit, better) in table.items():
        print("   %-32s %16.6f %-10s %s is better" %
              (name, result["metrics"][name]["value"], unit, better))
    bad = [name for name, ok in result["checks"].items() if not ok]
    print("   checks: %s   loss hash %s" %
          ("all %d passed" % len(result["checks"]) if not bad else "FAILED " + ", ".join(bad),
           result["loss_hash"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    knobs = sorted(name for name in os.environ if name.startswith("SCAFFE_"))
    if knobs:
        sys.exit("perfbench: refusing to run with %s set: the runtime knobs change the "
                 "program being measured" % ", ".join(knobs))
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("perfbench: --seed must be >= 0 and --seconds > 0")
    try:
        binary = build()
        RUNS.mkdir(parents=True, exist_ok=True)
        RESULTS.mkdir(parents=True, exist_ok=True)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(binary, w, args.seed, args.seconds, args.trace)
                   for w in workloads]
    except BenchError as error:
        sys.exit("perfbench: %s" % error)

    for result in results:
        report(result)
    if len(results) == 1:
        values = results[0]["metrics"]
    else:
        values = {"%s.%s" % (r["workload"], name): metric
                  for r in results for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": values,
    }))


if __name__ == "__main__":
    main()

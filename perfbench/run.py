#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the library and the benchmark binary
from source into .bench_build/ (CMake, Release) on first use, runs the
workload, and prints the binary's lines followed by one JSON object as the
last line of stdout: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list.  Every run is appended, with the machine fingerprint,
to .bench_results/history.jsonl; perfbench/compare.py reads that file.

Workloads: serve-minim, serve-bbb-burst, churn-100k, paper-figures.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
HISTORY = os.path.join(ROOT, ".bench_results", "history.jsonl")
SCRATCH = os.path.join(ROOT, ".bench_scratch")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources under " + os.path.join(ROOT, "src"))
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise BenchError(tool + " not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, cwd=ROOT, stdout=sys.stderr) != 0:
            raise BenchError("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "perfbench_selftest", "-j", BUILD_JOBS]
    if subprocess.call(command, cwd=ROOT, stdout=sys.stderr) != 0:
        raise BenchError("build failed")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint():
    """Machine and build identity; runs whose fingerprints differ are never
    compared (perfbench/compare.py refuses)."""
    facts = json.loads(subprocess.check_output([BINARY, "--fingerprint"], text=True))
    facts["nproc"] = os.cpu_count()
    facts["cpu_model"] = cpu_model()
    return facts


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        benchmark = json.load(spec)
    return {m["name"]: m["unit"] for m in benchmark["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("perfbench printed a result with keys " + str(sorted(result)))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        raise BenchError("perfbench metrics do not match BENCHMARK.json")


def run_binary(args, scratch):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    # Own process group, so a timeout can stop perfbench and its workers.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    if not lines:
        raise BenchError("perfbench printed nothing (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError("perfbench's last line is not a result (exit %d)" % proc.returncode)
    return result, proc.returncode


def record(args, facts, result):
    os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
    entry = {"time": time.time(), "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace, "fingerprint": facts,
             "result": result}
    with open(HISTORY, "a") as history:
        history.write(json.dumps(entry, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["serve-minim", "serve-bbb-burst", "churn-100k",
                                 "paper-figures"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    scratch = os.path.join(SCRATCH, str(os.getpid()))
    try:
        build()
        facts = fingerprint()
        print("[fingerprint] " + json.dumps(facts, sort_keys=True))
        result, code = run_binary(args, scratch)
        check_result(result, args.trace == 1)
    except (BenchError, OSError, subprocess.CalledProcessError) as error:
        log("perfbench: " + str(error))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record(args, facts, result)
    print(json.dumps(result))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

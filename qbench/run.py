#!/usr/bin/env python3
"""Builds and runs the BayesCrowd query benchmark.

Run from the repository root:

    python3 qbench/run.py --workload nba10k --seed 1 --seconds 20 --trace 0

The first call configures and builds a Release tree in .bench_build/;
later calls rebuild incrementally. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The lines before it give the host (CPU count, CPU model,
load average at start and end) and the build type, so a noisy run can
be traced to a busy host.

    python3 qbench/run.py --selftest         # the benchmark's own tests
    python3 qbench/run.py --write-reference  # regenerate reference.json
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DATA = os.path.join(BUILD, "qbench-data")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("nba10k", "synth10k", "serve-mix")
RUN_TIMEOUT_S = 170


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_average():
    return " ".join("%.2f" % x for x in os.getloadavg())


def build(target):
    """Configures on first use, then builds `target`; exits on failure."""
    log_path = os.path.join(BUILD, "qbench-build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("qbench: build failed (see %s)" % log_path)
    return os.path.join(BUILD, target)


def run_benchmark(args):
    print("qbench: host nproc=%d cpu=%s" % (len(os.sched_getaffinity(0)),
                                            cpu_model()))
    print("qbench: load average at start %s" % load_average())
    sys.stdout.flush()
    driver = build("qbench_driver")
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", DATA, "--reference", REFERENCE]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("qbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit("qbench: driver exited with code %d" % done.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("qbench: malformed result line")
    for line in lines[:-1]:
        print(line)
    print("qbench: load average at end %s" % load_average())
    print(json.dumps(result))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute qbench/reference.json")
    args = parser.parse_args()

    if args.selftest:
        test = build("qbench_test")
        return subprocess.call([test], cwd=BUILD)
    if args.write_reference:
        driver = build("qbench_driver")
        return subprocess.call([driver, "--write-reference", REFERENCE,
                                "--data-dir", DATA])
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())

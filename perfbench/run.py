#!/usr/bin/env python3
"""Repository benchmark driver.

Builds perfbench/ (the benchmark binary, linked against the libraries of
src/) into .bench_build/ and runs one workload from the checkout root:

    python3 perfbench/run.py --workload redbelly --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1 (the traced run also
writes a Chrome trace to .bench_build/traces/). The exit status is 0 only if
every operation passed its correctness gates.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

runs every workload untraced and prints each one's report.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["redbelly", "certify_audit", "naive", "service"]
RUN_TIMEOUT_S = 170  # one workload run, after the build


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configures once and builds the benchmark binary; returns its path."""
    cmake_dir = os.path.join(root, ".bench_build", "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(cmake_dir, "perfbench")


def run_workload(binary, root, workload, seed, seconds, trace):
    """Runs the binary once; returns (exit status, stdout lines)."""
    work_dir = os.path.join(".bench_build", "work-%d" % os.getpid())
    shutil.rmtree(os.path.join(root, work_dir), ignore_errors=True)
    os.makedirs(os.path.join(root, work_dir))
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--work-dir", work_dir]
    # Own session, so a timeout also stops the fork-local workers it started.
    process = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 3)
    finally:
        shutil.rmtree(os.path.join(root, work_dir), ignore_errors=True)
    return process.returncode, out.splitlines()


def check_metrics(root, result, trace):
    """The result must report exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in wanted}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s, units %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected)),
            sorted(n for n in set(got) & set(expected) if got[n] != expected[n])), 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "models/bv_broadcast.ta", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the repository root: %s is missing" % needed)
    try:
        binary = build(root)
    except subprocess.CalledProcessError as error:
        fail("build failed: %s" % error)

    if args.workload != "all":
        status, lines = run_workload(binary, root, args.workload, args.seed, args.seconds,
                                     args.trace)
        for line in lines:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail("%s printed no result (exit status %d)" % (args.workload, status), 3)
        check_metrics(root, result, args.trace)
        sys.exit(status)

    worst = 0
    for workload in WORKLOADS:
        status, lines = run_workload(binary, root, workload, args.seed, args.seconds, 0)
        for line in lines[:-1]:
            print(line)
        worst = worst or status
    sys.exit(worst)


if __name__ == "__main__":
    main()

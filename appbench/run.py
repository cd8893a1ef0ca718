#!/usr/bin/env python3
"""Builds and runs the appliance benchmark from the root of a checkout.

    python3 appbench/run.py --workload <name> --seed <n> --seconds <s>
        --trace <0|1>

The first call configures and builds appbench/ (which compiles ../src) into
.bench_build/; later calls only let CMake confirm the build is current. Each
run gets a fresh data directory under .bench_data/, removed on exit, and the
server listens on an ephemeral loopback port. The last line of standard
output is the JSON result. A traced run also writes its spans to
.bench_out/spans-<workload>-seed<n>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "appbench")
BINARY = os.path.join(BUILD_DIR, "appbench")
BUILD_TIMEOUT_S = 850
# The binary's own watchdog (kWatchdogSeconds in src/main.cc, 170 s) fires
# first; this timeout catches a process wedged on exit.
RUN_TIMEOUT_S = 176


def fail(message):
    print("appbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at src/ next to appbench/; run from a full "
             "checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "appbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(
                    step, stdout=log, stderr=subprocess.STDOUT,
                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build()
    data_dir = os.path.join(ROOT, ".bench_data", "run-%d" % os.getpid())
    command = [BINARY, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--data-dir", data_dir]
    if args.trace == "1":
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--span-out", os.path.join(
            out_dir, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        os.makedirs(data_dir)
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("run did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print("appbench: run exited with code %d" % proc.returncode,
              file=sys.stderr)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

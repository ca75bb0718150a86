#!/usr/bin/env python3
"""End-to-end benchmark for CADMC.

Builds the library from ../src together with the benchmark program (a CMake
package in this directory, built into .bench_build/e2ebench at the repository
root), runs one workload and relays the program's report. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.

    python3 e2ebench/run.py --workload frame_local|field_gateway|offline \
        --seed N --seconds S --trace 0|1

Exit status: 0 when every output check passed, 1 when one failed (the JSON
line then says "correct": false), 2 when the program cannot be built here,
3 when the run cannot be reported.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no src/ next to the benchmark; the library "
                         "sources are needed to build the program\n")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["frame_local", "field_gateway", "offline",
                                 "field_capacity"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds within 1..600")
    if not build():
        sys.stderr.write("run.py: build failed\n")
        return 2
    command = [os.path.join(BUILD, "cadmc_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--state-dir", BUILD]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=BUILD)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("run.py: workload did not finish in %d s\n"
                         % RUN_TIMEOUT_S)
        return 3
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

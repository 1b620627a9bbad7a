#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cluster_warm --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout: it configures and builds
perfbench/CMakeLists.txt into .bench_build/ at the checkout root (build
output goes to stderr), then runs the perfbench binary from the checkout
root with the same arguments. The binary's last stdout line is the JSON
result. Scratch directories the binary could not remove itself (it was
killed) are removed here after it exits.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SCRATCH = os.path.join(BUILD, "scratch")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "tools/dcs_server.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the "
                 "repository, not from the benchmark files alone")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    built = subprocess.run(
        [cmake, "--build", BUILD, "--target", "perfbench", "dcs_server",
         "-j", jobs],
        stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")


def run(argv):
    child = subprocess.Popen([os.path.join(BUILD, "perfbench"), *argv],
                             cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    code = child.wait()
    if os.path.isdir(SCRATCH):
        for entry in os.listdir(SCRATCH):
            shutil.rmtree(os.path.join(SCRATCH, entry), ignore_errors=True)
    return code


def main():
    build()
    code = run(sys.argv[1:])
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()

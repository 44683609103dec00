#!/usr/bin/env python3
"""Build and run the serving-stack benchmark.

Usage (from the repository root):

  python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 servebench/run.py --selftest

The first call configures and builds servebench/ (which compiles ../src)
into $CARGO_TARGET_DIR/servebench, or .bench_build/servebench when the
variable is unset; later calls only rebuild what changed. Build output goes
to stderr. The benchmark binary parses the arguments strictly and prints an
info line and the result line on stdout. A traced run (--trace 1) also
writes a Chrome trace, which must pass tools/validate_trace.py; if it does
not, the result line is reprinted with "correct": false and the exit status
is 1. See servebench/README.md.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                    ".bench_build")),
                     "servebench")
RUN_TIMEOUT_S = 178


def log(msg):
    print(f"servebench/run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def flag_value(argv, flag):
    for i, arg in enumerate(argv):
        if arg == flag and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    return None


def main():
    argv = sys.argv[1:]
    if argv == ["--selftest"]:
        if not build("servebench_selftest"):
            log("build failed")
            return 2
        return subprocess.run([os.path.join(BUILD, "servebench_selftest")],
                              timeout=RUN_TIMEOUT_S).returncode

    if not build("servebench"):
        log("build failed")
        return 2
    work = os.path.join(BUILD, "work")
    trace_out = os.path.join(work, "trace.json")
    if os.path.exists(trace_out):
        os.remove(trace_out)
    cmd = [os.path.join(BUILD, "servebench"), *argv, "--work-dir", work,
           "--golden", os.path.join(HERE, "golden_digests.txt"),
           "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 2
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 2

    if flag_value(argv, "--trace") == "1":
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "validate_trace.py"),
             trace_out])
        if check.returncode != 0:
            log("the traced run's Chrome trace failed validate_trace.py")
            result = json.loads(lines[-1])
            result["correct"] = False
            lines[-1] = json.dumps(result)
            sys.stdout.write("\n".join(lines) + "\n")
            return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

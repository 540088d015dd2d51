#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload clean_campaign --seed 1 --seconds 30 --trace 0

The benchmark is a CMake package of its own (e2ebench/CMakeLists.txt) that
compiles the repository's libraries from src/. The build lives in
$CARGO_TARGET_DIR (default .bench_build) under the checkout root; the first
run configures and builds it, later runs only check that it is up to date.
Every argument is passed through to the e2ebench binary, which parses them
strictly; this script only adds the scratch paths it owns (victim artifact
directory, Chrome trace file) and removes the scratch directory afterwards.
The last line of standard output is the benchmark's result JSON.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "e2ebench"
BUILD_JOBS = "4"


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(SOURCE), "-B", str(cmake_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    step = ["cmake", "--build", str(cmake_dir), "--target", "e2ebench", "-j", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return cmake_dir / "e2ebench"


def flag_value(args, name):
    """Best-effort lookup used only to name scratch files; e2ebench itself
    validates every argument."""
    for i, arg in enumerate(args):
        if arg.startswith(name + "="):
            value = arg[len(name) + 1:]
        elif arg == name and i + 1 < len(args):
            value = args[i + 1]
        else:
            continue
        return value if re.fullmatch(r"[A-Za-z0-9_]{1,64}", value) else None
    return None


def main(argv):
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    tag = "-".join(filter(None, [flag_value(argv, "--workload"), "seed" +
                                 (flag_value(argv, "--seed") or "x"), str(os.getpid())]))
    work_dir = build_dir / "work" / tag
    trace_file = build_dir / "traces" / f"{tag}.json"
    command = [str(binary), *argv, "--work-dir", str(work_dir)]
    if flag_value(argv, "--trace") == "1":
        command += ["--trace-file", str(trace_file)]
    try:
        # Bounded so a hung run still ends; e2ebench kills nothing of its own.
        completed = subprocess.run(command, timeout=900)
        return completed.returncode
    except subprocess.TimeoutExpired:
        log("e2ebench timed out")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

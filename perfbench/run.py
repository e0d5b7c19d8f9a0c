#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload replay_calls|live_calls \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; the first run configures and compiles the
library and the benchmark (Release), later runs rebuild incrementally. The
benchmark's self-test runs before every measurement. The last line of
standard output is the run's JSON result; build output goes to standard
error. A traced run (--trace 1) also writes its spans to
<build>/traces/<workload>.jsonl.
"""

import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(message, log=None):
    if log:
        sys.stderr.write(log)
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(1)


def step(command, timeout):
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(command)}", done.stdout)


def main():
    args = sys.argv[1:]
    bench_dir = Path(__file__).resolve().parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (build_root / "perfbench").resolve()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))

    if not (build_dir / "CMakeCache.txt").exists():
        step(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    step(["cmake", "--build", str(build_dir), "-j", jobs,
          "--target", "perfbench_run", "perfbench_selftest"], timeout=840)
    step([str(build_dir / "perfbench_selftest")], timeout=60)

    command = [str(build_dir / "perfbench_run")] + args
    flags = dict(zip(args[::2], args[1::2]))
    if flags.get("--trace") == "1":
        traces = build_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        workload = Path(flags.get("--workload", "run")).name
        command += ["--trace-out", str(traces / f"{workload}.jsonl")]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

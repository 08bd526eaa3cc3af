#!/usr/bin/env python3
"""Build the benchmark program from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <web_base|web_esp|serve_memcached>
                             [--seed N] [--seconds S] [--trace 0|1]

The first call configures and builds perfbench/ (which compiles the
simulator library from src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls only rebuild what changed. Build output
goes to stderr, so the last line of stdout is perfbench's JSON result.
See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys
from pathlib import Path

# perfbench itself runs for about --seconds plus set-up; this only
# guards against a hung build or run.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no simulator sources at {root / 'src'}",
              file=sys.stderr)
        return 2

    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    build = build / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))

    try:
        if not (build / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(bench_dir), "-B", str(build),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", str(build), "--target",
                        "perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    try:
        return subprocess.run([str(build / "perfbench")] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from the source tree and run one workload.

Usage, from the repo root:

    python3 perfbench/run.py --tail-limit-ms 500 \
        --workload <sweep|single-large|serve> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (and through it the
simulator library) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only bring the build up to
date. Build output goes to stderr; the benchmark's own stdout is passed
through, so its last line is the JSON result. Any build or run failure
exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(build_root, "perfbench")
    work = os.path.join(build, "run")
    os.makedirs(work, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", HERE, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "--target", "perfbench",
                 "-j", jobs]):
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           cwd=root) != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 1
    exe = os.path.join(build, "perfbench")
    # A relative work directory keeps the daemon's socket path short.
    proc = subprocess.run([exe, "--work-dir", os.path.relpath(work, root)]
                          + sys.argv[1:], cwd=root)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

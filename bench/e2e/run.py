#!/usr/bin/env python3
"""Build psched_e2e from source, then run it with this script's arguments.

    python3 bench/e2e/run.py --workload das2-t2 --seed 7 --seconds 25 --trace 0

The build goes to build-e2e at the repository root (the directory the
README's one-command build uses), and its output to stderr, so the last
line of stdout is the benchmark's own JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "..", "..", "build-e2e")


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j4", "--target", "psched_e2e"],
    ]
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode
        if code != 0:
            sys.exit(code)


def main():
    build()
    binary = os.path.join(BUILD, "psched_e2e")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()

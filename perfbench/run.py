#!/usr/bin/env python3
"""Build the program and the benchmark from this checkout, then run one
workload of the repository benchmark.

    python3 perfbench/run.py --workload plan-suite|submit-cold|submit-hit \
        --seed N --seconds S --trace 0|1

Run from the root of the checkout.  The build goes to _build/; its
output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  Exits non-zero, printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune is not on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled", "--display", "quiet",
         "./perfbench/main.exe", "./bin/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    pdw = os.path.join("_build", "default", "bin", "main.exe")
    sys.stdout.flush()
    os.execv(exe, [exe, "--pdw", pdw] + sys.argv[1:])


if __name__ == "__main__":
    main()

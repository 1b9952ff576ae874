#!/usr/bin/env python3
"""Build the perfbench program from source, then run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload serve-ring-flat --seed 1 --seconds 20 --trace 0

The Go build writes only inside the checkout: the binary and the build
cache go to $CARGO_TARGET_DIR (default .bench_build). All arguments are
passed to the program, whose last line of output is the JSON result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")


def main():
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out_dir, "gocache"),
        GOPATH=os.path.join(out_dir, "gopath"),
        # Go's configuration and telemetry files live under the user config
        # directory; keep them inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(out_dir, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
    )
    binary = os.path.join(out_dir, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=BENCH_DIR,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

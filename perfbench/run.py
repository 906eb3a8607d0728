#!/usr/bin/env python3
"""Build and run the repository benchmark; see perfbench/README.md.

Run from the root of the repository:

    python3 perfbench/run.py --workload ssb-batch --seed 1 --seconds 10 --trace 0

The arguments are passed to the benchmark program. The Go build cache,
temporary files and the binary go to .bench_build/ under the repository
root; the benchmark reads and writes nothing else outside the Go
toolchain. The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("run.py: run from the repository root (no go.mod here)", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

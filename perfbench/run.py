#!/usr/bin/env python3
"""Build and run the repository benchmark; see perfbench/README.md.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go program is built from source with its build cache, temporary
files and output under .bench_build/ in the current directory, so a run
reads and writes nothing outside the checkout. The last line of standard
output is the benchmark's JSON result. A failed build or run exits
non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOFLAGS="",
    )
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    go = shutil.which("go") or "/usr/local/go/bin/go"
    binary = os.path.join(build, "perfbench-bin")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=src, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary] + sys.argv[1:] + ["--out", os.path.join(build, "perfbench")]
    try:
        ran = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the shipped programs and the benchmark from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/ in the
checkout (binaries, the Go build cache, scratch data). The last line of
standard output is the JSON result; see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

PROGRAMS = ["evalrepro", "diffcode", "diffcoded", "corpusgen"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ["go.mod", os.path.join("perfbench", "go.mod")] + [
        os.path.join("cmd", p) for p in PROGRAMS
    ]:
        if not os.path.exists(os.path.join(root, need)):
            sys.exit(f"run.py: {need} not found; run from the root of a full checkout")

    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    steps = [
        (root, ["go", "build", "-o", bindir + os.sep] + ["./cmd/" + p for p in PROGRAMS]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")

    bench = os.path.join(bindir, "perfbench")
    argv = [
        bench,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
    ]
    sys.stdout.flush()
    os.execve(bench, argv, env)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runner for the repository benchmark (see BENCHMARK.json and README.md).

    python3 benchmarks/run.py --workload readrandom --seed 7 --seconds 5 --trace 0

builds benchmarks/dlsm-perf from this checkout into .bench_build/ and runs
one workload. The last line of standard output is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Everything written (build cache, binary, Chrome traces) stays under
.bench_build/ in the checkout.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]
    # Work is sized in operations, not in seconds, so that the virtual-clock
    # metrics of one seed repeat exactly: --seconds picks the size at which
    # the measured phase takes about that long on the reference box.
    scale = args.seconds / run_seconds

    for sub in ("gocache", "gopath", "tmp", "out"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "dlsm-perf")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(HERE, "dlsm-perf"), env=env)
    if build.returncode != 0:
        return build.returncode or 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-scale", repr(scale), "-out-dir", os.path.join(BUILD, "out")]
    if args.trace:
        cmd.append("-trace")
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

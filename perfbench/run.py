#!/usr/bin/env python3
"""Builds the MBB benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sparse|dense|serve --seed N --seconds S --trace 0|1

Run it from the repository root. The Rust package in this directory is
built in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
then run with the given arguments. Its standard output is passed through;
the last line is the JSON result. The run fails when the build fails, when
an answer check fails, or when the metric names in the result differ from
the ones BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]
    names = declared_names(trace)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    exe = os.path.join(target, "release", "mbb-perfbench")
    run = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if sorted(result["metrics"]) != sorted(names):
        print("metric names differ from BENCHMARK.json", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds felip_round_bench from source and runs one benchmark run.

Run from the repository root:

  python3 perfbench/run.py --workload ingest-olh --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke

A run prints the bench's output; its last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}. --smoke runs every workload
at a reduced population, untraced and traced, and checks that each passes
its gates and emits every metric BENCHMARK.json names, with its unit.

The build goes to .bench_build/ (or $CARGO_TARGET_DIR when set); durable
state of a run goes to a per-process directory under it and is removed
afterwards.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest-olh", "sharded-durable", "epoch-queries")
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "felip_round_bench")


def build():
    """Configures (once) and builds the bench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("FELIP sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "felip_round_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed; full log in " + log_path)
    return os.path.join(out, "felip_round_bench")


def provenance():
    """Git sha when the checkout is a repository, and a digest of the
    sources either way (the bench runs in checkouts without .git)."""
    sha = "unknown"
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            sha = result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, scale, echo=True):
    """Runs the bench once; returns (exit code, parsed result or None)."""
    sha, digest = provenance()
    scratch = os.path.join(os.path.dirname(binary), "runs", str(os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    command = [binary, "--workload=" + workload, "--seed=%d" % seed,
               "--seconds=%g" % seconds, "--trace=%d" % trace,
               "--scale=%g" % scale, "--scratch=" + scratch,
               "--git-sha=" + sha, "--source-digest=" + digest]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=None if echo else subprocess.DEVNULL,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def smoke(binary):
    """Every workload at a reduced population, untraced and traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result = run_once(binary, workload, seed=7, seconds=1,
                                    trace=trace, scale=0.05, echo=False)
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result.get("correct"):
                problems.append("%s: exit %d, result %s" % (label, code, result))
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics %s, expected %s"
                                % (label, sorted(got), sorted(expected[trace])))
            print("smoke %-28s ok (%d metrics)" % (label, len(got)))
    for problem in problems:
        print("smoke FAILED " + problem, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="population multiplier in (0, 1]")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        fail("--workload is required (or --smoke)")
    binary = build()
    if args.smoke:
        return smoke(binary)
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, args.scale)
    if result is None:
        print("error: the bench printed no result", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())

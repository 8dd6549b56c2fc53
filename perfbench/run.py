#!/usr/bin/env python3
"""Deployment benchmark entry point.

    python3 perfbench/run.py --workload <batch-week|live-ingest|serve-steady>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (the mtscope libraries
plus the measuring program) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload.  The
program checks its outputs, writes the full report to
.bench_out/<workload>-seed<n>-trace<t>.json and prints a summary; the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics BENCHMARK.json names,
--trace 1 the per-layer ones.  The exit code is non-zero when the build
fails, a check fails, or the result does not match BENCHMARK.json.
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
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def source_digest():
    """SHA-256 over the sources the program is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "bench", name) for name in ("bench_common.hpp", "bench_common.cpp")]
    for top in roots:
        for folder, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            files += [os.path.join(folder, n) for n in names if not n.endswith(".pyc")]
    for path in sorted(files):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Problems with the result line against BENCHMARK.json, if any."""
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)}"]
    problems = []
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    expected = expected_metrics(trace)
    got = result["metrics"]
    for name, unit in expected.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} unit {got[name].get('unit')} != {unit}")
    problems += [f"metric {name} not in BENCHMARK.json" for name in got if name not in expected]
    return problems


def run(args):
    binary = build()
    if binary is None:
        log("build failed")
        return 1
    out_dir = os.path.join(ROOT, ".bench_out")
    work_dir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    report = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--report", report,
               "--commit", commit(), "--source-digest", source_digest()]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        problems = validate(result, args.trace == 1)
    except (ValueError, KeyError, AttributeError, TypeError) as error:
        problems = [f"unreadable result line: {error}"]
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for problem in problems:
            log(problem)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch-week", "live-ingest", "serve-steady"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke-size self-test of the deployment benchmark harness.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute.  Builds the benchmark
like run.py, then at smoke size (tiny universe, two seconds):

  * checks that perfbench/metrics.json maps exactly the per-layer metrics
    BENCHMARK.json names (names and units live in BENCHMARK.json alone), and
    that every dropped metric carries a reason;
  * runs every workload untraced and checks that the result line carries
    every BENCHMARK.json end-to-end metric with its unit, that the run is
    correct with no failures, and that the report names every workload-level
    metric of that workload (metrics.json) with its unit;
  * runs the traced ledger once and checks that every per-layer metric of
    BENCHMARK.json is reported with its unit;
  * corrupts one served reply (serve-steady) and one snapshot (batch-week,
    live-ingest) on purpose and checks that each run fails: non-zero exit,
    correct false, the failure counted in error_share.

Exits non-zero on the first failed expectation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the entry point's build and validation helpers)


def load(path):
    with open(path) as handle:
        return json.load(handle)


def fail(message):
    print(f"selftest: FAIL: {message}", flush=True)
    sys.exit(1)


def check_catalog(spec, catalog):
    """metrics.json must map the same per-layer metrics BENCHMARK.json names."""
    grouped = [name for group in catalog["per_layer"] for name in group["metrics"]]
    named = {m["name"] for m in spec["per_layer"]}
    if len(grouped) != len(set(grouped)):
        fail("metrics.json lists a per-layer metric in more than one group")
    if set(grouped) != named:
        fail(f"per-layer names differ: only in metrics.json {sorted(set(grouped) - named)}, "
             f"only in BENCHMARK.json {sorted(named - set(grouped))}")
    for dropped in catalog["dropped"]:
        if dropped["name"] in named or not dropped.get("reason"):
            fail(f"dropped metric {dropped['name']} is still named or has no reason")
    missing = [w["name"] for w in spec["workloads"] if w["name"] not in catalog["workloads"]]
    if missing:
        fail(f"metrics.json has no shape for {missing}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, metric in catalog["end_to_end"].items():
        if name in units and units[name] != metric["unit"]:
            fail(f"{name}: unit {metric['unit']} in metrics.json, {units[name]} in BENCHMARK.json")
    print(f"selftest: metrics.json maps all {len(named)} per-layer metrics of BENCHMARK.json",
          flush=True)


def smoke(binary, workload, trace, fault=None, seed=11):
    out = os.path.join(ROOT, ".bench_out")
    report = os.path.join(out, f"selftest-{workload}-trace{trace}-{fault or 'clean'}.json")
    work = os.path.join(out, "selftest-work")
    os.makedirs(work, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "2",
               "--trace", str(trace), "--smoke", "--work-dir", work, "--report", report]
    if fault:
        command += ["--fault", fault]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    result = json.loads(done.stdout.strip().split("\n")[-1])
    return done.returncode, result, load(report)


def main():
    binary = run.build()
    if binary is None:
        fail("build failed")
    catalog = load(os.path.join(HERE, "metrics.json"))
    check_catalog(load(os.path.join(ROOT, "BENCHMARK.json")), catalog)

    for workload in catalog["workloads"]:
        code, result, report = smoke(binary, workload, 0)
        if code != 0 or not result["correct"] or result["failed"] != 0:
            fail(f"{workload}: clean smoke run failed: {report['failures']}")
        problems = run.validate(result, trace=False)
        if problems:
            fail(f"{workload}: {problems}")
        for name, metric in catalog["end_to_end"].items():
            if workload not in metric["workloads"]:
                continue
            got = report["metrics"].get(name)
            if got is None or got["unit"] != metric["unit"]:
                fail(f"{workload}: metric {name} missing or not in {metric['unit']}: {got}")
        if report["metrics"]["error_share"]["value"] != 0:
            fail(f"{workload}: error_share is not 0 on clean code")
        print(f"selftest: {workload}: every end-to-end metric printed with its unit, "
              f"error_share 0", flush=True)

    code, result, report = smoke(binary, "batch-week", 1)
    if code != 0 or not result["correct"]:
        fail(f"traced run failed: {report['failures']}")
    problems = run.validate(result, trace=True)  # every per-layer metric, with its unit
    if problems:
        fail(f"traced run: {problems}")
    if set(report["traces"]) != set(catalog["workloads"]):
        fail(f"traced run covered {sorted(report['traces'])}")
    print(f"selftest: traced run reports all {len(result['metrics'])} per-layer metrics",
          flush=True)

    for workload, fault in (("serve-steady", "reply"), ("batch-week", "snapshot"),
                            ("live-ingest", "snapshot")):
        code, result, report = smoke(binary, workload, 0, fault=fault)
        share = report["metrics"]["error_share"]["value"]
        if code == 0 or result["correct"] or result["failed"] < 1 or share <= 0:
            fail(f"{workload}: corrupted {fault} was not caught "
                 f"(exit {code}, failed {result['failed']}, error_share {share})")
        print(f"selftest: {workload}: corrupted {fault} caught "
              f"(exit {code}, error_share {share:.3g})", flush=True)
    print("selftest: OK")


if __name__ == "__main__":
    main()

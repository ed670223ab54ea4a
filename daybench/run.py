#!/usr/bin/env python3
"""daybench runner: builds the benchmark from source, runs one workload and
prints its report.

    python3 daybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 daybench/run.py --self-test

Run from the root of a checkout. The first run configures and builds two
variants of the same source under .bench_build/ (the measured Release build
with VODB_AUDIT=OFF, and an audited build for the audit-tax row); later runs
only check that both are up to date. --trace 0 prints the end-to-end metrics
of BENCHMARK.json, --trace 1 its per-layer metrics. Human-readable lines come
first; the last stdout line is the JSON result. Exit 0 when every output
check held, 1 when one failed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("one_disk_day", "ten_disk_budget", "wide_sharded_churn")
# Workloads whose traced run also times the audited build. The sharded day is
# left out: with the auditor on it runs several times longer than a run may.
AUDITED = ("one_disk_day", "ten_disk_budget")
# Share of a traced run's budget the measured build gets when the audited
# build runs too.
TRACE_SHARE = 0.6
RUN_TIMEOUT_S = 170
# Units of the report's metrics that BENCHMARK.json does not gate on.
REPORT_UNITS = {
    "admitted": "count", "arrivals": "count", "services": "count",
    "run_s": "s", "reference_s": "s", "setup_wall_s": "s",
    "services_per_s": "1/s",
    "reject_ratio": "fraction", "starvations": "count",
    "starvations_per_service": "fraction",
    "initial_latency_mean_s": "sim_s", "initial_latency_max_s": "sim_s",
}


def fail(msg, code=2):
    print(f"daybench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build(variant, audit, targets):
    """Configures (once) and builds one variant; returns its directory."""
    out = os.path.join(build_root(), f"daybench-{variant}")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                   f"-DVODB_AUDIT={'ON' if audit else 'OFF'}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                tail(log_path)
                fail(f"configure of the {variant} build failed")
        cmd = ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
               "--target"] + targets
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            tail(log_path)
            fail(f"{variant} build failed")
    return out


def tail(path, lines=30):
    with open(path) as f:
        for line in f.readlines()[-lines:]:
            print(line.rstrip(), file=sys.stderr)


def run_bench(binary, args):
    """Runs the benchmark binary; returns (report, other stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(binary)} {' '.join(args)} timed out", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{' '.join(args)} exited {proc.returncode}", 1)
    return json.loads(lines[-1]), lines[:-1]


def audit_tax(audited_run_s, measured_run_s):
    """Median over the passes both builds ran (same days) of audited ÷
    measured run time."""
    ratios = [a / m for a, m in zip(audited_run_s, measured_run_s) if m > 0]
    return statistics.median(ratios) if ratios else 0.0


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def declared_metrics(report_metrics, declared):
    """The declared metrics, by name with their units; raises KeyError when
    the binary did not produce one."""
    return {m["name"]: {"value": report_metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def self_test():
    out = build("release", False, ["daybench", "daybench_test"])
    code = subprocess.run([os.path.join(out, "daybench_test")]).returncode
    code |= subprocess.run([sys.executable, os.path.join(HERE, "run_test.py")]
                           ).returncode
    sys.exit(1 if code else 0)


def main():
    if "--self-test" in sys.argv[1:]:
        self_test()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()
    if a.seed < 0 or not a.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "vod_simulator.h")):
        fail(f"no vodb sources under {ROOT}/src: run from a checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    traced = a.trace == "1"

    measured = build("release", False, ["daybench"])
    audited = build("audit", True, ["daybench"])
    binary = os.path.join(measured, "daybench")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--trace", a.trace]

    audit_runs = traced and a.workload in AUDITED
    budget = a.seconds * (TRACE_SHARE if audit_runs else 1.0)
    extra = []
    if traced:
        spans_dir = os.path.join(build_root(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        extra = ["--spans",
                 os.path.join(spans_dir, f"{a.workload}-seed{a.seed}.tsv")]
    report, lines = run_bench(binary, args + ["--seconds", str(budget)] + extra)
    metrics = dict(report["metrics"])
    correct = report["correct"]
    attempted, failed = report["attempted"], report["failed"]
    if traced:
        metrics["sim.invariant_auditor.tax"] = 0.0
        if audit_runs:
            audit, _ = run_bench(
                os.path.join(audited, "daybench"),
                ["--workload", a.workload, "--seed", str(a.seed), "--trace",
                 "0", "--seconds", str(a.seconds - budget), "--min-passes",
                 "1"])
            correct = correct and audit["correct"]
            attempted += audit["attempted"]
            failed += audit["failed"]
            metrics["sim.invariant_auditor.tax"] = audit_tax(
                audit["samples"]["run_s"],
                report["samples"]["run_s_untraced"])

    declared = bench["per_layer" if traced else "end_to_end"]
    units = dict(REPORT_UNITS)
    units.update({m["name"]: m["unit"] for m in
                  bench["end_to_end"] + bench["per_layer"]})
    fp = dict(report["fingerprint"], seed=a.seed, git_sha=git_sha())
    print(f"daybench {a.workload} seed={a.seed} "
          f"mode={report['mode']} passes={report['passes']} "
          f"correct={'true' if correct else 'false'} "
          f"attempted={attempted} failed={failed}")
    for name, value in sorted(metrics.items()):
        print(f"  {name:40s} {value:.9g} {units.get(name, '')}".rstrip())
    for name, values in report["samples"].items():
        print(f"  samples {name}: " + " ".join(f"{v:.6g}" for v in values))
    print("fingerprint " + " ".join(f"{k}={v}" for k, v in fp.items()))
    for line in lines:
        print(line)
    try:
        result = declared_metrics(metrics, declared)
    except KeyError as e:
        fail(f"the benchmark did not report metric {e}", 1)
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": result}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

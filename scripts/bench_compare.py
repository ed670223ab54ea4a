#!/usr/bin/env python3
"""Diffs a fresh BENCH_*.json run against a committed baseline.

The gate is noise-aware: benchmark `b` regresses only when

    candidate_median > baseline_median * (1 + max(threshold, cv_mult * cv))

with cv = max(baseline cv, candidate cv) — a benchmark whose repetitions
jitter by 8% must move by 3x8 = 24% before the gate trips, while a rock-
steady one (cv ~ 0.5%) is held to the flat 10%. Improvements and sub-noise
jitter always pass; a byte-identical rerun compares equal by construction.

Cross-context guards: comparing reports from different CPU models, build
types or audit settings (whether the invariant auditor was compiled in;
a report without the "audit" field matches any) is meaningless, so such
runs are reported but exit 0 (advisory) unless --strict-machine forces
them to gate anyway. Benchmarks present in
the baseline but missing from the candidate fail (a silently dropped
benchmark is how a regression hides); new candidate benchmarks are noted.

Exit status: 0 = no regression, 1 = regression (or dropped benchmark),
2 = usage/schema error.

Usage:
    bench_compare.py --baseline bench/baselines/BENCH_baseline.json \
                     --candidate BENCH_myhost.json [options]
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "vodb-bench-v1"


def die(msg: str) -> None:
    print(f"bench_compare: {msg}", file=sys.stderr)
    sys.exit(2)


def load_report(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot load {path}: {e}")
    if doc.get("schema") != SCHEMA:
        die(f"{path}: schema {doc.get('schema')!r} (want {SCHEMA!r})")
    for field in ("machine", "benchmarks"):
        if field not in doc:
            die(f"{path}: missing {field!r}")
    return doc


def by_name(doc: dict) -> dict[str, dict]:
    out = {}
    for b in doc["benchmarks"]:
        if "name" not in b or "ns_per_iter" not in b:
            die(f"malformed benchmark entry {json.dumps(b)[:80]}")
        out[b["name"]] = b
    return out


def context_mismatches(base: dict, cand: dict) -> list[str]:
    notes = []
    b_m, c_m = base.get("machine", {}), cand.get("machine", {})
    if b_m.get("cpu_model") != c_m.get("cpu_model"):
        notes.append(
            f"cpu_model differs: baseline {b_m.get('cpu_model')!r} vs "
            f"candidate {c_m.get('cpu_model')!r}")
    if base.get("build_type") != cand.get("build_type"):
        notes.append(
            f"build_type differs: baseline {base.get('build_type')!r} vs "
            f"candidate {cand.get('build_type')!r}")
    # Audited timings carry the auditor's tax. Reports written before the
    # field existed do not say, so only two that both say can differ.
    if "audit" in base and "audit" in cand and base["audit"] != cand["audit"]:
        notes.append(
            f"audit differs: baseline {base['audit']!r} vs "
            f"candidate {cand['audit']!r}")
    return notes


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_baseline.json")
    ap.add_argument("--candidate", required=True,
                    help="freshly produced BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="flat relative regression floor (default 0.10)")
    ap.add_argument("--cv-mult", type=float, default=3.0,
                    help="noise multiplier: allowance = cv_mult * max(cv) "
                         "(default 3.0)")
    ap.add_argument("--strict-machine", action="store_true",
                    help="gate even across differing cpu_model/build_type/"
                         "audit "
                         "(default: such comparisons are advisory)")
    args = ap.parse_args()
    if args.threshold < 0 or args.cv_mult < 0:
        ap.error("--threshold and --cv-mult must be non-negative")

    base = load_report(args.baseline)
    cand = load_report(args.candidate)
    base_by = by_name(base)
    cand_by = by_name(cand)

    notes = context_mismatches(base, cand)
    advisory = bool(notes) and not args.strict_machine

    regressions: list[str] = []
    print(f"{'benchmark':<28} {'base ns':>12} {'cand ns':>12} "
          f"{'delta':>8} {'allowed':>8}  verdict")
    for name, b in sorted(base_by.items()):
        if name not in cand_by:
            regressions.append(f"{name}: present in baseline, missing from "
                               "candidate")
            print(f"{name:<28} {'-':>12} {'-':>12} {'-':>8} {'-':>8}  MISSING")
            continue
        c = cand_by[name]
        base_med = float(b["ns_per_iter"]["median"])
        cand_med = float(c["ns_per_iter"]["median"])
        cv = max(float(b["ns_per_iter"].get("cv", 0.0)),
                 float(c["ns_per_iter"].get("cv", 0.0)))
        allowance = max(args.threshold, args.cv_mult * cv)
        delta = (cand_med - base_med) / base_med if base_med > 0 else 0.0
        regressed = base_med > 0 and delta > allowance
        verdict = "REGRESSED" if regressed else "ok"
        print(f"{name:<28} {base_med:>12.2f} {cand_med:>12.2f} "
              f"{delta:>+7.1%} {allowance:>7.1%}  {verdict}")
        if regressed:
            regressions.append(
                f"{name}: median {base_med:.2f} -> {cand_med:.2f} ns/iter "
                f"({delta:+.1%} > allowed {allowance:.1%})")

    for name in sorted(set(cand_by) - set(base_by)):
        print(f"{name:<28} (new benchmark, no baseline entry)")

    for note in notes:
        print(f"note: {note}", file=sys.stderr)

    if regressions:
        print(f"\n{len(regressions)} regression(s):", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        if advisory:
            print("bench_compare: ADVISORY ONLY — reports come from "
                  "different machines/build types/audit settings; exiting 0 "
                  "(use --strict-machine to gate anyway)", file=sys.stderr)
            return 0
        return 1

    print("\nbench_compare: no regressions", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Checks that this checkout simulates exactly what another commit does.
#
#   scripts/digest_diff.sh <base-ref>
#
# Exports <base-ref> with `git archive` into a temporary directory, runs
# `daybench/run.py --seconds 1 --trace 0` for every workload at seeds 1 and 7
# in that tree and in this one, and diffs the `digest` lines (FNV-1a over
# every metric of pass 0, per disk). A change that claims to keep every
# simulated bit must leave them all equal. Each tree builds its own daybench
# binaries under its own .bench_build/ on first use; the base tree is
# deleted on exit.
#
# Exit status: 0 when every digest matches, 1 on a mismatch, 2 on a usage
# error or when a run could not be made.
set -euo pipefail

usage() {
  echo "usage: scripts/digest_diff.sh <base-ref>" >&2
  exit 2
}

[[ $# -eq 1 && -n "$1" && "$1" != -* ]] || usage
base_ref="$1"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if ! git -C "$root" rev-parse --verify --quiet "${base_ref}^{commit}" \
    > /dev/null; then
  echo "digest_diff: '${base_ref}' names no commit" >&2
  exit 2
fi

# daybench/run.py builds under $CARGO_TARGET_DIR when it is set; the two
# trees must not share one build directory.
unset CARGO_TARGET_DIR

base_tree="$(mktemp -d)"
trap 'rm -rf "$base_tree"' EXIT
git -C "$root" archive "$base_ref" | tar -x -C "$base_tree"

# Prints the digest lines of one run; exits 2 when the run could not be made.
digests() {
  local tree="$1" workload="$2" seed="$3" out status=0
  out="$(cd "$tree" && python3 daybench/run.py --workload "$workload" \
           --seed "$seed" --seconds 1 --trace 0)" || status=$?
  # Exit 1 means an output check failed; the digests are still printed and
  # still comparable. Anything else means there is nothing to compare.
  if [[ $status -ne 0 && $status -ne 1 ]]; then
    echo "digest_diff: $workload seed $seed did not run in $tree" >&2
    exit 2
  fi
  if ! grep '^digest' <<< "$out"; then
    echo "digest_diff: $workload seed $seed printed no digest in $tree" >&2
    exit 2
  fi
}

mismatches=0
for workload in one_disk_day ten_disk_budget wide_sharded_churn; do
  for seed in 1 7; do
    base_digests="$(digests "$base_tree" "$workload" "$seed")"
    head_digests="$(digests "$root" "$workload" "$seed")"
    count="$(wc -l <<< "$head_digests")"
    if diff <(echo "$base_digests") <(echo "$head_digests"); then
      echo "$workload seed $seed: $count digests match"
    else
      echo "$workload seed $seed: digests differ from $base_ref"
      mismatches=$((mismatches + 1))
    fi
  done
done

if [[ $mismatches -ne 0 ]]; then
  echo "digest_diff: $mismatches of 6 runs differ from $base_ref" >&2
  exit 1
fi
echo "digest_diff: every digest matches $base_ref"

#!/usr/bin/env bash
# ThreadSanitizer verification pass: configures build-tsan/ with
# VODB_TSAN=ON, builds everything, and runs the tier-1 ctest suite. The
# concurrent traffic TSan needs comes from thread_pool_stress_test
# (the calling thread and the workers racing for ParallelFor's shared
# index, back-to-back rounds, exceptions under contention), the 8-thread
# exp_runner_test sweeps and sharded_sim_test's multi-thread epochs.
# Usage: scripts/verify_tsan.sh [extra ctest args...]
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${ROOT}/build-tsan"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "${BUILD}" -S "${ROOT}" -DVODB_TSAN=ON
cmake --build "${BUILD}" -j"${JOBS}"
# Default to the tier-1 suite (soak excluded); explicit ctest args
# replace the default, so `verify_tsan.sh -L soak` runs the soak alone.
if [[ $# -eq 0 ]]; then set -- -LE soak; fi
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir "${BUILD}" --output-on-failure -j"${JOBS}" "$@"

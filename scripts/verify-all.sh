#!/usr/bin/env bash
# verify-all: chains the four verify-* workflows — configure + build +
# test of each supported configuration in sequence: default
# (RelWithDebInfo, every test: the lint, accuracy, profile, telemetry and
# winnow labels included), ASan+UBSan, a UBSan-only build over the
# lint+winnow labels (the interpreter and abstract-interpreter arithmetic
# edge cases are exactly where UB hides), and TSan over the
# Combine-labelled concurrency tests (the worker pool, the parallel
# placement paths and the LP memo shared by the parallel LP batches, run
# at FARM_THREADS=8). A single label re-runs on the default tree with
# `ctest --test-dir build -L <label>`.
# Then three fatal bench gates: bench_incremental must re-solve a single
# seed event on the 100k-seed fabric through the LP memo in under a
# second, bit-identical to a memo-less solve and, at FARM_THREADS=1,
# faster than it; bench_profiler must show ≤2% end-to-end
# cost on the instrumented 10k-seed solve; and bench_winnow must replay
# every optimized shipped seed bit-identically with ≥3 seeds showing a
# strict refined-TCAM reduction. A final non-fatal clang-tidy stage
# (scripts/lint.sh) reports a finding count without breaking the chain.
# Workflow presets cannot mix configure presets, so each configuration is
# its own workflow and this script is the chain.
#
# Usage: scripts/verify-all.sh [-jN]
# Any extra arguments are forwarded to every `cmake --workflow` call.
set -euo pipefail

cd "$(dirname "$0")/.."

workflows=(verify-default verify-asan verify-ubsan verify-tsan)
failed=()

for wf in "${workflows[@]}"; do
  echo "==== workflow: ${wf} ===="
  if ! cmake --workflow --preset "${wf}" "$@"; then
    failed+=("${wf}")
  fi
done

# LP memo gate: a single seed arrival/departure on the 100k-seed,
# 1040-switch fabric must re-solve through the memo in under a second,
# bit-identical to a memo-less solve, and beat the memo-less solve at
# FARM_THREADS=1 (bench_incremental exits non-zero otherwise) — fatal, it
# guards the memo's bit-identity and its reason to exist.
echo "==== stage: LP memo gate (bench_incremental) ===="
if ! build/bench/bench_incremental; then
  failed+=(bench_incremental)
fi

# Furrow overhead gate: the instrumented 10k-seed solve must stay within
# 2% of the profiler-off run (bench_profiler exits non-zero otherwise) —
# fatal, it guards the "always-available" claim.
echo "==== stage: furrow overhead gate (bench_profiler) ===="
if ! build/bench/bench_profiler; then
  failed+=(bench_profiler)
fi

# Winnow soundness gate: every shipped seed's optimized machine must
# replay bit-identically inside its analysis envelope, and at least three
# seeds must show a strict refined-TCAM reduction (bench_winnow exits
# non-zero otherwise) — fatal, it guards the optimizer's behavior
# contract.
echo "==== stage: winnow soundness gate (bench_winnow) ===="
if ! build/bench/bench_winnow; then
  failed+=(bench_winnow)
fi

# clang-tidy static analysis: non-fatal — prints its finding count (or a
# skip notice when clang-tidy is absent) without failing the chain.
echo "==== stage: clang-tidy (non-fatal) ===="
scripts/lint.sh || true

if ((${#failed[@]})); then
  echo "verify-all: FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "verify-all: all ${#workflows[@]} workflows passed"

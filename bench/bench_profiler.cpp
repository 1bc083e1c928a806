// Furrow — profiler cost and overhead gate.
//
// Three sections:
//
//   BM_ProfMicro     — ns per scope (enabled vs runtime-disabled), ns per
//                      counter increment. The runtime-disabled cost is the
//                      price every FARM binary pays for shipping the
//                      instrumentation.
//   BM_ProfMerge     — snapshot (merge) cost with 1/4/16 live recording
//                      threads, µs per snapshot.
//   BM_ProfOverhead  — the hard gate: the instrumented 10k-seed
//                      solve_heuristic (Fig. 7 top end, same spec as
//                      bench_combine) must be within 2% of the
//                      profiler-off run. Min-of-N paired alternating reps
//                      filters scheduler noise; the bench exits non-zero
//                      when the gate fails, and scripts/verify-all.sh
//                      treats that as fatal.
//
// Side artifacts: BENCH_profiler.json (all numbers + solver counters) and
// BENCH_profiler_collapsed.txt (the collapsed-stack profile of the gated
// solve, ready for flamegraph.pl / speedscope).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "placement/generator.h"
#include "placement/heuristic.h"
#include "telemetry/export.h"
#include "telemetry/prof.h"
#include "util/pool.h"

using namespace farm;
using namespace farm::telemetry;
using prof::ProfNode;
using prof::Profiler;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Sink defeating dead-code elimination of measured loops.
volatile std::uint64_t g_sink = 0;

double scope_cost_ns(std::size_t n) {
  std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    FARM_PROF_SCOPE("bench/spin");
    g_sink = g_sink + 1;
  }
  return static_cast<double>(now_ns() - t0) / static_cast<double>(n);
}

double counter_cost_ns(std::size_t n) {
  std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) FARM_PROF_COUNT("bench.ticks", 1);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(n);
}

void fill_tree(int depth) {
  if (depth == 0) return;
  FARM_PROF_SCOPE("lvl");
  fill_tree(depth - 1);
}

// µs per snapshot() with `workers` live threads each holding a recorded
// tree (the live-fold path, the expensive half of a snapshot; retired
// state is a single pre-folded copy).
double merge_cost_us(int workers) {
  Profiler& prof = Profiler::instance();
  prof.reset();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 64; ++i) {
        FARM_PROF_TASK("bench/fill");
        fill_tree(8);
      }
      FARM_PROF_COUNT("bench.fill", 1);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_relaxed)) std::this_thread::yield();
    });
  }
  while (ready.load() < workers) std::this_thread::yield();
  const int reps = 20;
  std::uint64_t t0 = now_ns();
  for (int i = 0; i < reps; ++i) {
    prof::Snapshot snap = prof.snapshot();
    g_sink = g_sink + snap.root.total_ns + snap.root.children.size();
  }
  double us = static_cast<double>(now_ns() - t0) / 1e3 / reps;
  go.store(true);
  for (std::thread& t : threads) t.join();
  prof.reset();
  return us;
}

// Every node's children must fit inside it (no clamping fired) — the
// collapsed file's invariant that self-time sums never exceed totals.
bool reconciles(const ProfNode& node) {
  std::uint64_t child_total = 0;
  for (const ProfNode& c : node.children) {
    if (!reconciles(c)) return false;
    child_total += c.total_ns;
  }
  return child_total <= node.total_ns &&
         node.self_ns == node.total_ns - child_total;
}

}  // namespace

int main() {
  bench::BenchJson json("profiler");
  Profiler& prof = Profiler::instance();
  std::printf("Furrow — profiler cost & overhead gate\n\n");

  // --- BM_ProfMicro -------------------------------------------------------
  const std::size_t n = 500000;
  prof.set_enabled(true);
  prof.reset();
  scope_cost_ns(n / 8);  // warm up: allocate the node once
  double scope_on = scope_cost_ns(n);
  double counter_on = counter_cost_ns(n);
  prof.set_enabled(false);
  double scope_off = scope_cost_ns(n);
  double counter_off = counter_cost_ns(n);
  prof.set_enabled(true);
  prof.reset();
  std::printf("BM_ProfMicro — %zu iterations\n", n);
  std::printf("%24s | %10s %10s\n", "", "enabled", "disabled");
  std::printf("%24s | %9.1fns %9.1fns\n", "scope", scope_on, scope_off);
  std::printf("%24s | %9.1fns %9.1fns\n\n", "counter", counter_on,
              counter_off);
  json.record("scope_ns", scope_on, "ns", {bench::param("enabled", 1)});
  json.record("scope_ns", scope_off, "ns", {bench::param("enabled", 0)});
  json.record("counter_ns", counter_on, "ns", {bench::param("enabled", 1)});
  json.record("counter_ns", counter_off, "ns", {bench::param("enabled", 0)});

  // --- BM_ProfMerge -------------------------------------------------------
  std::printf("BM_ProfMerge — snapshot cost vs live recording threads\n");
  std::printf("%8s | %12s\n", "workers", "us/snapshot");
  for (int workers : {1, 4, 16}) {
    double us = merge_cost_us(workers);
    std::printf("%8d | %12.1f\n", workers, us);
    json.record("snapshot_us", us, "us", {bench::param("workers", workers)});
  }
  std::printf("\n");

  // --- BM_ProfOverhead ----------------------------------------------------
  placement::GeneratorSpec spec;
  spec.n_switches = 1040;
  spec.n_tasks = 10;
  spec.seeds_per_task = 1000;  // 10k seeds, Fig. 7 top end
  spec.seed = 42;
  placement::PlacementProblem problem = placement::generate_problem(spec);
  util::ScopedThreads sequential(1);  // no pool scheduling noise in the gate
  json.record("hw_threads",
              static_cast<double>(std::thread::hardware_concurrency()),
              "count");
  json.record("farm_threads", util::ThreadPool::default_threads(), "count");

  int reps = 3;
  if (const char* env = std::getenv("FARM_BENCH_REPS"); env && *env)
    reps = std::max(1, std::atoi(env));
  std::printf("BM_ProfOverhead — 10k-seed solve, profiler on vs off, "
              "min of %d paired reps\n", reps);
  double best_off = 1e300, best_on = 1e300;
  prof::Snapshot profile;  // of the last instrumented rep
  for (int rep = 0; rep < reps; ++rep) {
    prof.set_enabled(false);
    prof.reset();
    placement::PlacementResult off = placement::solve_heuristic(problem);
    best_off = std::min(best_off, off.solve_seconds);
    prof.set_enabled(true);
    prof.reset();
    placement::PlacementResult on = placement::solve_heuristic(problem);
    best_on = std::min(best_on, on.solve_seconds);
    profile = prof.snapshot();
    std::printf("  rep %d: off %.3fs on %.3fs\n", rep, off.solve_seconds,
                on.solve_seconds);
  }
  double overhead_pct = (best_on - best_off) / best_off * 100.0;
  std::printf("  min: off %.3fs on %.3fs → overhead %+.2f%% (gate ≤ 2%%)\n",
              best_off, best_on, overhead_pct);
  json.record("solve_seconds", best_off, "s", {bench::param("profiler", 0)});
  json.record("solve_seconds", best_on, "s", {bench::param("profiler", 1)});
  json.record("overhead_pct", overhead_pct, "%");

  // Solver counters from the instrumented run — the numbers `farm report`
  // surfaces next to the flamegraph.
  std::uint64_t pivots = profile.counter("lp.simplex.pivots");
  std::uint64_t milp_nodes = profile.counter("lp.milp.nodes");
  std::uint64_t applied = profile.counter("placement.migration.applied");
  std::uint64_t rejected = profile.counter("placement.migration.rejected");
  std::printf("  counters: lp.simplex.pivots=%llu lp.milp.nodes=%llu "
              "migration applied=%llu rejected=%llu\n",
              static_cast<unsigned long long>(pivots),
              static_cast<unsigned long long>(milp_nodes),
              static_cast<unsigned long long>(applied),
              static_cast<unsigned long long>(rejected));
  json.record("simplex_pivots", static_cast<double>(pivots), "count");
  json.record("milp_nodes", static_cast<double>(milp_nodes), "count");
  json.record("migration_applied", static_cast<double>(applied), "count");
  json.record("migration_rejected", static_cast<double>(rejected), "count");

  // Collapsed-stack artifact + reconciliation: children fit inside parents
  // everywhere, so self-time sums can never exceed totals.
  bool reconciled = reconciles(profile.root);
  bool counters_seen = pivots > 0;
  {
    std::ofstream os(bench::bench_output_dir() /
                     "BENCH_profiler_collapsed.txt");
    write_prof_collapsed(os, profile);
  }
  std::printf("  reconciled=%s counters_seen=%s "
              "(BENCH_profiler_collapsed.txt written)\n\n",
              reconciled ? "yes" : "NO", counters_seen ? "yes" : "NO");
  json.record("reconciled", reconciled ? 1 : 0, "bool");

  bool gate = overhead_pct <= 2.0 && reconciled && counters_seen;
  std::printf("%s\n", gate ? "OVERHEAD GATE: PASS" : "OVERHEAD GATE: FAIL");
  return gate ? 0 : 1;
}

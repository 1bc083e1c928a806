// Ablation: the migration pass of Algorithm 1 (steps 4-5).
//
// Starting from a deliberately skewed current placement (everything packed
// onto a few switches — e.g. after a partial fabric outage healed), re-run
// the optimizer with and without the migration pass. The pass must recover
// utility; the residue accounting must keep every intermediate state
// feasible (validated).
#include <cstdio>

#include "bench_json.h"
#include "placement/generator.h"
#include "placement/heuristic.h"
#include "telemetry/prof.h"

using namespace farm::placement;
using farm::telemetry::prof::Profiler;

namespace {

// Furrow counter delta across one solve — how much LP work and how many
// accepted/rejected moves each configuration cost.
struct SolveCounters {
  std::uint64_t pivots = 0, applied = 0, rejected = 0;
};

SolveCounters counter_delta(const farm::telemetry::prof::Snapshot& before,
                            const farm::telemetry::prof::Snapshot& after) {
  return {after.counter("lp.simplex.pivots") -
              before.counter("lp.simplex.pivots"),
          after.counter("placement.migration.applied") -
              before.counter("placement.migration.applied"),
          after.counter("placement.migration.rejected") -
              before.counter("placement.migration.rejected")};
}

}  // namespace

int main() {
  farm::bench::BenchJson json("ablation_migration");
  std::printf("Ablation — migration pass of Algorithm 1\n\n");
  std::printf("%6s | %14s %14s %10s\n", "seeds", "MU(no-migr)", "MU(migr)",
              "gain");
  bool ok = true;
  for (int seeds_per_task : {10, 20, 40}) {
    GeneratorSpec spec;
    spec.n_switches = 24;
    spec.n_tasks = 6;
    spec.seeds_per_task = seeds_per_task;
    spec.seed = 5;
    auto problem = generate_problem(spec);
    // Skew: everything currently on the first 4 switches (where allowed).
    for (auto& s : problem.seeds) {
      for (auto n : s.candidates)
        if (n < 4) {
          problem.current_placement[s.id] = n;
          problem.current_alloc[s.id] = ResourcesValue{0.2, 32, 4, 0.2};
          break;
        }
    }

    HeuristicOptions no_migr;
    no_migr.enable_migration_pass = false;
    auto pre_base = Profiler::instance().snapshot();
    auto base = solve_heuristic(problem, no_migr);
    auto pre_with = Profiler::instance().snapshot();
    auto with = solve_heuristic(problem);
    SolveCounters base_ctr = counter_delta(pre_base, pre_with);
    SolveCounters with_ctr =
        counter_delta(pre_with, Profiler::instance().snapshot());
    if (!validate_placement(problem, base).empty() ||
        !validate_placement(problem, with).empty()) {
      std::printf("INVALID placement!\n");
      return 1;
    }
    double gain = with.total_utility - base.total_utility;
    std::printf("%6d | %14.1f %14.1f %9.1f%%\n", 6 * seeds_per_task,
                base.total_utility, with.total_utility,
                base.total_utility > 0 ? 100 * gain / base.total_utility : 0);
    std::printf("       | pivots %llu → %llu, moves applied %llu "
                "rejected %llu\n",
                static_cast<unsigned long long>(base_ctr.pivots),
                static_cast<unsigned long long>(with_ctr.pivots),
                static_cast<unsigned long long>(with_ctr.applied),
                static_cast<unsigned long long>(with_ctr.rejected));
    json.record("utility_no_migration", base.total_utility, "MU",
                {farm::bench::param("seeds", 6 * seeds_per_task)});
    json.record("utility_with_migration", with.total_utility, "MU",
                {farm::bench::param("seeds", 6 * seeds_per_task)});
    // Furrow solver counters: the LP work each configuration bought and
    // what the migration pass did with it.
    json.record("simplex_pivots", static_cast<double>(base_ctr.pivots),
                "count", {farm::bench::param("seeds", 6 * seeds_per_task),
                          farm::bench::param("migration", 0)});
    json.record("simplex_pivots", static_cast<double>(with_ctr.pivots),
                "count", {farm::bench::param("seeds", 6 * seeds_per_task),
                          farm::bench::param("migration", 1)});
    json.record("migration_applied", static_cast<double>(with_ctr.applied),
                "count", {farm::bench::param("seeds", 6 * seeds_per_task)});
    json.record("migration_rejected", static_cast<double>(with_ctr.rejected),
                "count", {farm::bench::param("seeds", 6 * seeds_per_task)});
    ok &= with.total_utility >= base.total_utility - 1e-6;
  }
  std::printf("\nmigration pass never loses utility: %s\n",
              ok ? "HOLDS" : "VIOLATED");
  return ok ? 0 : 1;
}

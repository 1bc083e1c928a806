// SolveMemo: Algorithm 1 run through a memo kept across solves must be
// bit-identical to the memo-less solve — not close, identical — at any
// thread count, across arbitrary sequences of seed arrivals, departures,
// switch failures/recoveries and capacity changes. Also pins the
// validate-and-repair pass inside solve_heuristic (exercised via a
// deliberately poisoned cache) and the generation eviction that keeps the
// memo's size bounded. Labelled `combine`, so the TSan workflow
// race-checks the shared memo under the parallel LP batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "placement/generator.h"
#include "placement/heuristic.h"
#include "placement/memo.h"
#include "telemetry/prof.h"
#include "util/pool.h"
#include "util/rng.h"

namespace farm::placement {
namespace {

// Exact equality, every double compared bitwise. lp_solves is excluded by
// contract (cache misses are scheduling-dependent under a memo).
void expect_identical(const PlacementResult& a, const PlacementResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.placements.size(), b.placements.size()) << what;
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    const auto& x = a.placements[i];
    const auto& y = b.placements[i];
    EXPECT_EQ(x.seed, y.seed) << what << " entry " << i;
    EXPECT_EQ(x.node, y.node) << what << " entry " << i;
    EXPECT_EQ(x.variant, y.variant) << what << " entry " << i;
    EXPECT_EQ(x.utility, y.utility) << what << " entry " << i;
    EXPECT_EQ(x.alloc.vCPU, y.alloc.vCPU) << what << " entry " << i;
    EXPECT_EQ(x.alloc.RAM, y.alloc.RAM) << what << " entry " << i;
    EXPECT_EQ(x.alloc.TCAM, y.alloc.TCAM) << what << " entry " << i;
    EXPECT_EQ(x.alloc.PCIe, y.alloc.PCIe) << what << " entry " << i;
  }
  EXPECT_EQ(a.total_utility, b.total_utility) << what;
}

PlacementProblem base_problem(std::uint64_t seed) {
  GeneratorSpec spec;
  spec.n_switches = 12;
  spec.n_tasks = 3;
  spec.seeds_per_task = 10;
  spec.seed = seed;
  return generate_problem(spec);
}

PlacementResult solve_with(const PlacementProblem& problem, SolveMemo& memo,
                           HeuristicOptions opts = {}) {
  opts.memo = &memo;
  return solve_heuristic(problem, opts);
}

// One deterministic mutation per step, cycling through the event kinds the
// seeder produces: arrivals, departures, switch failure/recovery, capacity
// drift, and current-placement drift.
void mutate(PlacementProblem& p, std::vector<SwitchModel>& failed,
            util::Rng& rng, int step) {
  switch (step % 6) {
    case 0: {  // seed arrival: clone an existing seed under a new id
      const SeedModel& src =
          p.seeds[rng.next_below(p.seeds.size())];
      SeedModel s = src;
      s.id = "arrival-" + std::to_string(step);
      p.seeds.push_back(std::move(s));
      break;
    }
    case 1: {  // seed departure
      std::size_t i = rng.next_below(p.seeds.size());
      p.current_placement.erase(p.seeds[i].id);
      p.current_alloc.erase(p.seeds[i].id);
      p.seeds.erase(p.seeds.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
    case 2: {  // switch failure
      if (p.switches.size() <= 2) break;
      std::size_t i = rng.next_below(p.switches.size());
      failed.push_back(p.switches[i]);
      p.switches.erase(p.switches.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
    case 3: {  // switch recovery
      if (failed.empty()) break;
      p.switches.push_back(failed.back());
      failed.pop_back();
      break;
    }
    case 4: {  // capacity drift on one switch
      SwitchModel& sw = p.switches[rng.next_below(p.switches.size())];
      sw.capacity.vCPU *= 0.9;
      sw.capacity.RAM *= 0.95;
      break;
    }
    default: {  // current-placement drift: a seed moved outside our control
      const SeedModel& s = p.seeds[rng.next_below(p.seeds.size())];
      if (!s.candidates.empty())
        p.current_placement[s.id] =
            s.candidates[rng.next_below(s.candidates.size())];
      break;
    }
  }
}

TEST(MemoTest, SingleArrivalReusesCachedLpsAndMatchesMemoLessSolve) {
  auto problem = base_problem(2);
  SolveMemo memo;
  solve_with(problem, memo);

  SeedModel extra = problem.seeds.front();
  extra.id = "late-arrival";
  extra.candidates.resize(1);  // touches one switch
  problem.seeds.push_back(extra);

  const std::uint64_t hits_before = memo.hits();
  auto memoized = solve_with(problem, memo);
  EXPECT_GT(memo.hits(), hits_before)
      << "unchanged LPs must come from the memo";
  expect_identical(memoized, solve_heuristic(problem), "single arrival");
}

// Random arrival/departure/failure sequences, memo'd vs memo-less, at
// FARM_THREADS ∈ {1, 4, 16}, and identical across the thread counts. The
// sequences start from a fresh placement and from one where every seed
// runs on its first candidate, whose moves step 4 screens through the
// shared memo from every worker.
void random_sequences_are_bit_identical(bool running) {
  constexpr int kSteps = 12;
  std::vector<std::vector<PlacementResult>> per_thread_results;
  for (int threads : {1, 4, 16}) {
    util::ScopedThreads scoped(threads);
    auto problem = base_problem(3);
    if (running)
      for (const auto& s : problem.seeds)
        problem.current_placement[s.id] = s.candidates.front();
    std::vector<SwitchModel> failed;
    util::Rng rng(99);  // same sequence at every thread count
    SolveMemo memo;
    std::vector<PlacementResult> results;
    for (int step = 0; step < kSteps; ++step) {
      auto memoized = solve_with(problem, memo);
      expect_identical(memoized, solve_heuristic(problem),
                       "threads=" + std::to_string(threads) + " step=" +
                           std::to_string(step));
      results.push_back(std::move(memoized));
      mutate(problem, failed, rng, step);
    }
    EXPECT_GT(memo.hits(), 0u)
        << "sequence never reused a cached LP at threads=" << threads;
    per_thread_results.push_back(std::move(results));
  }
  for (std::size_t t = 1; t < per_thread_results.size(); ++t) {
    ASSERT_EQ(per_thread_results[t].size(), per_thread_results[0].size());
    for (std::size_t i = 0; i < per_thread_results[t].size(); ++i)
      expect_identical(per_thread_results[t][i], per_thread_results[0][i],
                       "cross-thread step " + std::to_string(i));
  }
}

TEST(MemoTest, BitIdenticalAcrossRandomSequencesAt1_4_16Threads) {
  for (bool running : {false, true}) {
    SCOPED_TRACE(running ? "every seed running" : "fresh placement");
    random_sequences_are_bit_identical(running);
  }
}

TEST(MemoTest, PoisonedCacheIsRepairedInsideSolveHeuristic) {
  auto problem = base_problem(6);
  HeuristicOptions opts;
  opts.enable_migration_pass = false;  // keys stable across runs
  SolveMemo memo;
  solve_with(problem, memo, opts);

  // Corrupt every cached switch-LP entry with allocations far beyond any
  // capacity: served as is, the next result would violate (C2), so
  // solve_heuristic must notice and repair the memo with a fresh solve.
  for (std::size_t n = 1; n <= 16; ++n) {
    SwitchLpResult fake;
    fake.utility = 1;
    fake.allocs.assign(n, ResourcesValue{1e6, 1e6, 1e6, 1e6});
    fake.utilities.assign(n, 1);
    memo.poison_switch_entries_for_testing(fake);
  }

  auto repaired = solve_with(problem, memo, opts);
  EXPECT_TRUE(validate_placement(problem, repaired).empty());
  expect_identical(repaired, solve_heuristic(problem, opts),
                   "post-poison repair");
}

// Fifty problems with distinct seed content through one memo: the memo
// may hold only what the current solve and the kKeepGenerations solves
// before it touched — the content a fresh memo reaches on each of them —
// instead of accumulating every problem it has seen. The problems start
// from a fresh placement and from one where every seed runs on its first
// candidate, whose moves step 4 screens, so value entries are bounded
// with the others.
void sizes_stay_bounded(bool running) {
  constexpr int kProblems = 50;
  constexpr int kKeep = static_cast<int>(SolveMemo::kKeepGenerations);
  auto screened = [] {
    return telemetry::prof::Profiler::instance().snapshot().counter(
        "placement.migration.screened");
  };
  SolveMemo shared;
  std::vector<std::size_t> fresh_size;
  for (int i = 0; i < kProblems; ++i) {
    auto problem = base_problem(1000 + static_cast<std::uint64_t>(i));
    if (running)
      for (const auto& s : problem.seeds)
        problem.current_placement[s.id] = s.candidates.front();
    SolveMemo fresh;
    const std::uint64_t screened_before = screened();
    solve_with(problem, fresh);
    fresh_size.push_back(fresh.size());
    ASSERT_GT(fresh_size.back(), 0u);
    if (running) {
      ASSERT_GT(screened(), screened_before)
          << "problem " << i << " screened nothing";
    }

    solve_with(problem, shared);
    std::size_t bound = 0;
    for (int j = std::max(0, i - kKeep); j <= i; ++j)
      bound += fresh_size[static_cast<std::size_t>(j)];
    EXPECT_LE(shared.size(), bound) << "after problem " << i;
  }
}

TEST(MemoTest, SizeStaysBoundedByTheRetainedGenerations) {
  for (bool running : {false, true}) {
    SCOPED_TRACE(running ? "every seed running" : "fresh placement");
    sizes_stay_bounded(running);
  }
}

}  // namespace
}  // namespace farm::placement

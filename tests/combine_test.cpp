// Combine — deterministic parallel execution.
//
// The contract under test everywhere here: the parallel run is
// *bit-identical* to the sequential run, at any thread count. These tests
// carry the `combine` ctest label so the thread-sanitizer workflow
// (verify-tsan) can target exactly the concurrent code paths.
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "placement/generator.h"
#include "placement/heuristic.h"
#include "util/pool.h"

using namespace farm;
using namespace farm::placement;

namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelMapReturnsResultsInIndexOrder) {
  util::ThreadPool pool(8);
  auto out = pool.parallel_map<std::size_t>(5000, [](std::size_t i) {
    return i * i;
  });
  ASSERT_EQ(out.size(), 5000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(64, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16 * 16);
  pool.parallel_for(16, [&](std::size_t i) {
    // Nested use of the same pool from a worker must not deadlock; it
    // executes inline on the worker.
    pool.parallel_for(16, [&](std::size_t j) {
      hits[i * 16 + j].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  util::ThreadPool pool(4);
  for (int round = 0; round < 100; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(round + 1,
                      [&](std::size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(),
              static_cast<std::size_t>(round + 1) * (round + 2) / 2);
  }
}

TEST(ThreadPoolTest, ScopedThreadsOverridesDefault) {
  util::ScopedThreads one(1);
  EXPECT_EQ(util::ThreadPool::default_threads(), 1);
  {
    util::ScopedThreads six(6);
    EXPECT_EQ(util::ThreadPool::default_threads(), 6);
    util::ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 6);
  }
  EXPECT_EQ(util::ThreadPool::default_threads(), 1);
}

TEST(ThreadPoolTest, ZeroItemsAndOneItemAreNoOpsInline) {
  util::ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(1, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// Placement equivalence: sequential vs parallel at 1/4/16 threads.

PlacementProblem medium_problem(std::uint64_t seed) {
  GeneratorSpec spec;
  spec.n_switches = 24;
  spec.n_tasks = 6;
  spec.seeds_per_task = 20;
  spec.seed = seed;
  auto problem = generate_problem(spec);
  // Give the migration pass something to do: skew the current placement.
  for (auto& s : problem.seeds) {
    for (auto n : s.candidates)
      if (n < 4) {
        problem.current_placement[s.id] = n;
        problem.current_alloc[s.id] = ResourcesValue{0.2, 32, 4, 0.2};
        break;
      }
  }
  return problem;
}

void expect_identical(const PlacementResult& a, const PlacementResult& b) {
  EXPECT_EQ(a.total_utility, b.total_utility);
  EXPECT_EQ(a.lp_solves, b.lp_solves);
  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    const auto& x = a.placements[i];
    const auto& y = b.placements[i];
    EXPECT_EQ(x.seed, y.seed);
    EXPECT_EQ(x.node, y.node);
    EXPECT_EQ(x.variant, y.variant);
    EXPECT_EQ(x.utility, y.utility);
    EXPECT_EQ(x.alloc.vCPU, y.alloc.vCPU);
    EXPECT_EQ(x.alloc.RAM, y.alloc.RAM);
    EXPECT_EQ(x.alloc.TCAM, y.alloc.TCAM);
    EXPECT_EQ(x.alloc.PCIe, y.alloc.PCIe);
  }
}

TEST(CombinePlacementTest, ParallelSolveBitIdenticalAt1_4_16Threads) {
  for (std::uint64_t seed : {7u, 21u}) {
    auto problem = medium_problem(seed);
    PlacementResult base;
    {
      util::ScopedThreads one(1);
      base = solve_heuristic(problem);
    }
    for (int threads : {4, 16}) {
      util::ScopedThreads scoped(threads);
      auto r = solve_heuristic(problem);
      SCOPED_TRACE(testing::Message() << "seed=" << seed
                                      << " threads=" << threads);
      expect_identical(base, r);
    }
  }
}

TEST(CombinePlacementTest, FarmThreadsEnvControlsDefaultResolution) {
  // The env var is the deployment knob; ScopedThreads must shadow it so
  // tests stay hermetic.
  ::setenv("FARM_THREADS", "3", 1);
  util::ScopedThreads two(2);
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 2);
  ::unsetenv("FARM_THREADS");
}

}  // namespace

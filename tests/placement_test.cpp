// Tests for the placement optimizer: MILP encoding, Algorithm 1 heuristic,
// validation of (C1)-(C4), migration overhead, and aggregation benefits.
#include <gtest/gtest.h>

#include <cstdint>

#include "placement/generator.h"
#include "placement/heuristic.h"
#include "placement/memo.h"
#include "placement/milp_placement.h"
#include "placement/switch_lp.h"
#include "telemetry/prof.h"
#include "util/rng.h"

namespace farm::placement {
namespace {

using almanac::kPcie;
using almanac::kRam;
using almanac::kTcam;
using almanac::kVCpu;
using almanac::Poly;

SwitchModel mk_switch(net::NodeId n, double cpu = 4, double ram = 8192,
                      double tcam = 1024, double pcie = 8) {
  SwitchModel sw;
  sw.node = n;
  sw.capacity = ResourcesValue{cpu, ram, tcam, pcie};
  return sw;
}

// A seed needing ≥1 vCPU & ≥100 RAM, utility min(vCPU, PCIe) — exactly the
// paper's HH observe state.
SeedModel hh_seed(const std::string& id, const std::string& task,
                  std::vector<net::NodeId> candidates) {
  SeedModel s;
  s.id = id;
  s.task = task;
  s.candidates = std::move(candidates);
  UtilityVariant v;
  Poly c1 = Poly::var(kVCpu);
  c1.c0 = -1;
  Poly c2 = Poly::var(kRam);
  c2.c0 = -100;
  v.constraints = {c1, c2};
  v.util_min_terms = {Poly::var(kVCpu), Poly::var(kPcie)};
  s.variants.push_back(v);
  PollModel p;
  p.subject = "iface ANY&";
  p.inv_ival = Poly::var(kPcie, 0.1);  // ival = 10/PCIe
  s.polls.push_back(p);
  return s;
}

TEST(SwitchLpTest, MinimalAllocationSatisfiesConstraints) {
  auto s = hh_seed("s", "t", {0});
  auto alloc = minimal_allocation(s.variants[0], {8, 8192, 1024, 8});
  ASSERT_TRUE(alloc);
  EXPECT_NEAR(alloc->vCPU, 1, 1e-6);
  EXPECT_NEAR(alloc->RAM, 100, 1e-6);
  EXPECT_TRUE(s.variants[0].feasible(*alloc));
}

TEST(SwitchLpTest, MinimalAllocationInfeasibleWhenCapacityTooSmall) {
  auto s = hh_seed("s", "t", {0});
  EXPECT_FALSE(minimal_allocation(s.variants[0], {0.5, 8192, 1024, 8}));
}

TEST(SwitchLpTest, RedistributionMaximizesMinTermUtility) {
  auto sw = mk_switch(0);
  auto s = hh_seed("s", "t", {0});
  auto lp = redistribute_on_switch(sw, {{&s, 0}}, {});
  ASSERT_TRUE(lp);
  // Utility = min(vCPU, PCIe); optimum allocates up to min(cap) on both:
  // vCPU cap 4, PCIe cap 8 but polling demand consumes PCIe… utility 4
  // requires PCIe ≥ 4 and pollres = 0.1·PCIe·α ≤ 8 holds. Expect 4.
  EXPECT_NEAR(lp->utility, 4, 1e-5);
}

TEST(SwitchLpTest, PollAggregationSharesCapacity) {
  // Two seeds with the same subject vs different subjects: same-subject
  // pair can both poll fast (shared pollres), different subjects halve it.
  auto sw = mk_switch(0, /*cpu=*/16, 8192, 1024, /*pcie=*/4);
  auto a = hh_seed("a", "t", {0});
  auto b = hh_seed("b", "t", {0});
  auto shared = redistribute_on_switch(sw, {{&a, 0}, {&b, 0}}, {});
  ASSERT_TRUE(shared);
  auto c = hh_seed("c", "t", {0});
  c.polls[0].subject = "flow:c";
  auto split = redistribute_on_switch(sw, {{&a, 0}, {&c, 0}}, {});
  ASSERT_TRUE(split);
  EXPECT_GT(shared->utility, split->utility - 1e-6);
}

TEST(HeuristicTest, PlacesSingleSeedOnBestSwitch) {
  PlacementProblem p;
  p.switches = {mk_switch(0, 2, 8192, 1024, 8), mk_switch(1, 8, 8192, 1024, 8)};
  p.seeds = {hh_seed("s", "t", {0, 1})};
  auto r = solve_heuristic(p);
  ASSERT_EQ(r.placements.size(), 1u);
  EXPECT_TRUE(validate_placement(p, r).empty());
  // Redistribution should push utility to the larger switch's level
  // eventually (migration pass moves it if greedy picked the small one).
  EXPECT_GE(r.total_utility, 2.0 - 1e-6);
}

TEST(HeuristicTest, RespectsTaskAtomicity) {
  // Task with two seeds, but only one can ever be placed: whole task must
  // be dropped (C1).
  PlacementProblem p;
  p.switches = {mk_switch(0, 1.5, 8192, 1024, 8)};  // fits one HH seed only
  p.seeds = {hh_seed("a", "t", {0}), hh_seed("b", "t", {0})};
  auto r = solve_heuristic(p);
  EXPECT_TRUE(r.placements.empty());
  EXPECT_TRUE(validate_placement(p, r).empty());
}

TEST(HeuristicTest, PrefersCurrentPlacementWhenEqual) {
  PlacementProblem p;
  p.switches = {mk_switch(0), mk_switch(1)};
  p.seeds = {hh_seed("s", "t", {0, 1})};
  p.current_placement["s"] = 1;
  p.current_alloc["s"] = ResourcesValue{1, 100, 0, 1};
  auto r = solve_heuristic(p);
  ASSERT_EQ(r.placements.size(), 1u);
  EXPECT_EQ(r.placements[0].node, 1u);  // no unnecessary migration
}

TEST(HeuristicTest, MigratesWhenBenefitExceedsStatusQuo) {
  // Seed currently on a tiny switch; a big switch is available.
  PlacementProblem p;
  p.switches = {mk_switch(0, 1.2, 8192, 1024, 2), mk_switch(1, 8, 8192, 1024, 8)};
  p.seeds = {hh_seed("s", "t", {0, 1})};
  p.current_placement["s"] = 0;
  p.current_alloc["s"] = ResourcesValue{1, 100, 0, 1};
  auto r = solve_heuristic(p);
  ASSERT_EQ(r.placements.size(), 1u);
  EXPECT_EQ(r.placements[0].node, 1u);
  EXPECT_TRUE(validate_placement(p, r).empty());
}

TEST(HeuristicTest, MigrationResidueRespectsSourceCapacity) {
  // Two seeds currently on switch 0 (capacity 2.2 vCPU, allocs 1+1).
  // Both want to move to the bigger switch 1, but the residue of a mover
  // stays charged at 0 — the validator must accept the result.
  PlacementProblem p;
  p.switches = {mk_switch(0, 2.2, 8192, 1024, 8), mk_switch(1, 16, 32768, 1024, 8)};
  p.seeds = {hh_seed("a", "ta", {0, 1}), hh_seed("b", "tb", {0, 1})};
  p.current_placement["a"] = 0;
  p.current_placement["b"] = 0;
  p.current_alloc["a"] = ResourcesValue{1, 100, 0, 1};
  p.current_alloc["b"] = ResourcesValue{1, 100, 0, 1};
  auto r = solve_heuristic(p);
  EXPECT_EQ(r.placements.size(), 2u);
  EXPECT_TRUE(validate_placement(p, r).empty()) << [&] {
    std::string all;
    for (const auto& e : validate_placement(p, r)) all += e + "; ";
    return all;
  }();
}

TEST(MilpPlacementTest, SingleSeedOptimal) {
  PlacementProblem p;
  p.switches = {mk_switch(0, 2, 8192, 1024, 8), mk_switch(1, 8, 8192, 1024, 8)};
  p.seeds = {hh_seed("s", "t", {0, 1})};
  auto r = solve_milp_placement(p, {.timeout_seconds = 30});
  ASSERT_EQ(r.placements.size(), 1u);
  EXPECT_EQ(r.placements[0].node, 1u);  // bigger switch: utility 8 vs 2
  EXPECT_NEAR(r.total_utility, 8, 1e-4);
  EXPECT_TRUE(validate_placement(p, r).empty());
}

TEST(MilpPlacementTest, TaskAtomicityEnforced) {
  PlacementProblem p;
  p.switches = {mk_switch(0, 1.5, 8192, 1024, 8)};
  p.seeds = {hh_seed("a", "t", {0}), hh_seed("b", "t", {0})};
  auto r = solve_milp_placement(p, {.timeout_seconds = 30});
  EXPECT_TRUE(r.placements.empty());
}

TEST(MilpPlacementTest, PicksHigherValueTaskUnderContention) {
  // One slot (vCPU 2): task A has one seed worth up to 2; task B has two
  // seeds (needs 2 slots) worth 1 each. Optimal: A alone.
  PlacementProblem p;
  p.switches = {mk_switch(0, 2, 8192, 1024, 8)};
  auto a = hh_seed("a", "A", {0});
  auto b1 = hh_seed("b1", "B", {0});
  auto b2 = hh_seed("b2", "B", {0});
  p.seeds = {a, b1, b2};
  auto r = solve_milp_placement(p, {.timeout_seconds = 30});
  ASSERT_EQ(r.placements.size(), 1u);
  EXPECT_EQ(r.placements[0].seed, "a");
  EXPECT_TRUE(validate_placement(p, r).empty());
}

TEST(MilpPlacementTest, HeuristicMatchesMilpOnSmallInstances) {
  // Property: on small random instances the heuristic achieves ≥ 85% of
  // the MILP optimum (the paper reports near-parity with Gurobi-10min).
  for (std::uint64_t trial = 1; trial <= 5; ++trial) {
    GeneratorSpec spec;
    spec.n_switches = 4;
    spec.n_tasks = 3;
    spec.seeds_per_task = 2;
    spec.candidates_per_seed = 2;
    spec.seed = trial;
    auto p = generate_problem(spec);
    auto milp = solve_milp_placement(p, {.timeout_seconds = 20});
    auto heur = solve_heuristic(p);
    EXPECT_TRUE(validate_placement(p, milp).empty()) << "trial " << trial;
    EXPECT_TRUE(validate_placement(p, heur).empty()) << "trial " << trial;
    if (milp.total_utility > 0) {
      EXPECT_GE(heur.total_utility, 0.85 * milp.total_utility)
          << "trial " << trial;
    }
    // And the exact solver is never beaten (sanity of the encoding).
    EXPECT_LE(heur.total_utility, milp.total_utility + 1e-4)
        << "trial " << trial;
  }
}

TEST(MilpPlacementTest, TimeoutFallsBackToFirstFit) {
  GeneratorSpec spec;
  spec.n_switches = 30;
  spec.n_tasks = 8;
  spec.seeds_per_task = 30;
  spec.seed = 9;
  auto p = generate_problem(spec);
  auto r = solve_milp_placement(p, {.timeout_seconds = 0.05});
  EXPECT_TRUE(r.timed_out);
  // The fallback still produces a valid (if mediocre) placement.
  EXPECT_TRUE(validate_placement(p, r).empty());
  EXPECT_GT(r.placements.size(), 0u);
}

TEST(GeneratorTest, ProducesValidatableProblems) {
  GeneratorSpec spec;
  spec.n_switches = 10;
  spec.n_tasks = 4;
  spec.seeds_per_task = 10;
  auto p = generate_problem(spec);
  EXPECT_EQ(p.seeds.size(), 40u);
  EXPECT_EQ(p.switches.size(), 10u);
  for (const auto& s : p.seeds) {
    EXPECT_FALSE(s.candidates.empty());
    EXPECT_FALSE(s.variants.empty());
  }
  auto r = solve_heuristic(p);
  EXPECT_TRUE(validate_placement(p, r).empty());
  EXPECT_GT(r.total_utility, 0);
}

TEST(HeuristicTest, ScalesToThousandsOfSeeds) {
  GeneratorSpec spec;
  spec.n_switches = 200;
  spec.n_tasks = 10;
  spec.seeds_per_task = 200;  // 2000 seeds
  auto p = generate_problem(spec);
  auto r = solve_heuristic(p);
  EXPECT_TRUE(validate_placement(p, r).empty());
  // Capacity + task atomicity bound how much fits; most of the high-value
  // tasks must land.
  EXPECT_GE(r.placements.size(), 800u);
  EXPECT_LT(r.solve_seconds, 30.0);
}

TEST(ValidateTest, DetectsOverCapacity) {
  PlacementProblem p;
  p.switches = {mk_switch(0, 1, 8192, 1024, 8)};
  p.seeds = {hh_seed("a", "t", {0})};
  PlacementResult r;
  PlacementEntry e;
  e.seed = "a";
  e.node = 0;
  e.variant = 0;
  e.alloc = ResourcesValue{5, 100, 0, 1};  // vCPU 5 > cap 1
  r.placements.push_back(e);
  EXPECT_FALSE(validate_placement(p, r).empty());
}

TEST(ValidateTest, DetectsConstraintViolation) {
  PlacementProblem p;
  p.switches = {mk_switch(0)};
  p.seeds = {hh_seed("a", "t", {0})};
  PlacementResult r;
  PlacementEntry e;
  e.seed = "a";
  e.node = 0;
  e.variant = 0;
  e.alloc = ResourcesValue{0.5, 100, 0, 1};  // violates vCPU >= 1
  r.placements.push_back(e);
  EXPECT_FALSE(validate_placement(p, r).empty());
}

TEST(ValidateTest, DetectsPartialTask) {
  PlacementProblem p;
  p.switches = {mk_switch(0)};
  p.seeds = {hh_seed("a", "t", {0}), hh_seed("b", "t", {0})};
  PlacementResult r;
  PlacementEntry e;
  e.seed = "a";
  e.node = 0;
  e.variant = 0;
  e.alloc = ResourcesValue{1, 100, 0, 1};
  r.placements.push_back(e);
  EXPECT_FALSE(validate_placement(p, r).empty());
}

TEST(HeuristicTest, InteractingMigrationsSkipMoveWhoseBenefitTurnsNegative) {
  // Two seeds on small switches, one big switch both covet. Evaluated
  // against the pre-migration state each move is worth +1.5; once the
  // first is applied, the big switch is taken and the second move's
  // *recomputed* benefit is -2. The apply loop must re-price each move
  // against the evolving state and skip it — applying on the stale score
  // would drop total utility from 5.5 to 3.5.
  PlacementProblem p;
  p.switches = {mk_switch(0, /*cpu=*/2), mk_switch(1, /*cpu=*/2),
                mk_switch(2, /*cpu=*/3.5)};
  p.seeds = {hh_seed("s1", "t1", {0, 2}), hh_seed("s2", "t2", {1, 2})};
  p.current_placement["s1"] = 0;
  p.current_placement["s2"] = 1;
  p.current_alloc["s1"] = ResourcesValue{0.1, 10, 0, 0.1};
  p.current_alloc["s2"] = ResourcesValue{0.1, 10, 0, 0.1};

  auto r = solve_heuristic(p);
  ASSERT_EQ(r.placements.size(), 2u);
  EXPECT_TRUE(validate_placement(p, r).empty());
  // Exactly one seed migrates to the big switch; the other must stay put.
  EXPECT_NEAR(r.total_utility, 5.5, 1e-5);
  int on_big = 0;
  for (const auto& e2 : r.placements) on_big += e2.node == 2;
  EXPECT_EQ(on_big, 1);

  // Sanity: the migration pass is what earns the 1.5 — without it both
  // seeds stay on their 2-vCPU switches.
  HeuristicOptions no_migr;
  no_migr.enable_migration_pass = false;
  auto base = solve_heuristic(p, no_migr);
  EXPECT_NEAR(base.total_utility, 4.0, 1e-5);
}

// --- Step 4's output, pinned bit for bit -----------------------------------

// 64-bit FNV-1a over each entry's seed, node and variant and the bits of
// its allocation and utility, then the bits of the total utility.
std::uint64_t placement_digest(const PlacementResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& e : r.placements) {
    mix(e.seed.data(), e.seed.size());
    mix(&e.node, sizeof e.node);
    mix(&e.variant, sizeof e.variant);
    for (double v : {e.alloc.vCPU, e.alloc.RAM, e.alloc.TCAM, e.alloc.PCIe,
                     e.utility})
      mix(&v, sizeof v);
  }
  mix(&r.total_utility, sizeof r.total_utility);
  return h;
}

// Every seed currently runs on its first candidate among switches 0..3,
// with a small allocation: the skew bench_ablation_migration and
// combine_test give the migration pass.
PlacementProblem skewed(GeneratorSpec spec) {
  auto problem = generate_problem(spec);
  for (const auto& s : problem.seeds)
    for (auto n : s.candidates)
      if (n < 4) {
        problem.current_placement[s.id] = n;
        problem.current_alloc[s.id] = ResourcesValue{0.2, 32, 4, 0.2};
        break;
      }
  return problem;
}

std::uint64_t furrow_counter(const char* name) {
  return telemetry::prof::Profiler::instance().snapshot().counter(name);
}

// The placements below were recorded before step 4 screened any move; the
// screen may only skip moves that cannot pay, so every byte must stay. The
// instances apply moves of running and of fresh seeds:
// bench_ablation_migration's three shapes, combine_test's medium problems
// and property_test's random current placements.
TEST(HeuristicTest, MigrationPassOutputIsPinnedBitForBit) {
  struct Case {
    std::string name;
    PlacementProblem problem;
    std::uint64_t digest;
  };
  std::vector<Case> cases;
  const std::uint64_t ablation_digest[] = {
      10233726751575371349ull, 18092060784250231214ull, 2001502657846534232ull};
  for (int i = 0; i < 3; ++i) {
    GeneratorSpec spec;
    spec.n_switches = 24;
    spec.n_tasks = 6;
    spec.seeds_per_task = 10 << i;
    spec.seed = 5;
    cases.push_back({"ablation " + std::to_string(6 * spec.seeds_per_task),
                     skewed(spec), ablation_digest[i]});
  }
  const std::pair<std::uint64_t, std::uint64_t> medium_digest[] = {
      {7, 12843615416762678091ull}, {21, 9964925033855692043ull}};
  for (const auto& [seed, digest] : medium_digest) {
    GeneratorSpec spec;
    spec.n_switches = 24;
    spec.n_tasks = 6;
    spec.seeds_per_task = 20;
    spec.seed = seed;
    cases.push_back({"medium " + std::to_string(seed), skewed(spec), digest});
  }
  const std::uint64_t random_digest[] = {
      13980935733443762509ull, 4599257514694032805ull,
      4714369396611399335ull, 5846566506362503263ull,
      3036672045573767933ull, 8348062151508196093ull,
      11186790005626827105ull, 16997586846344215131ull,
      5745281124428215977ull, 1587847327145475649ull,
      1386909021222906593ull, 12899608898696517265ull};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GeneratorSpec spec;
    spec.n_switches = 10;
    spec.n_tasks = 4;
    spec.seeds_per_task = 8;
    spec.seed = seed;
    auto problem = generate_problem(spec);
    util::Rng rng(seed * 13 + 1);
    for (const auto& s : problem.seeds) {
      if (!rng.next_bool(0.7)) continue;
      problem.current_placement[s.id] =
          s.candidates[rng.next_below(s.candidates.size())];
      problem.current_alloc[s.id] = ResourcesValue{0.2, 32, 4, 0.2};
    }
    cases.push_back({"random " + std::to_string(seed), std::move(problem),
                     random_digest[seed - 1]});
  }

  const std::uint64_t applied_before =
      furrow_counter("placement.migration.applied");
  for (const auto& c : cases) {
    // Memo-less, through a fresh memo, and through the same memo again,
    // where every LP the first solve cached is read back.
    SolveMemo memo;
    HeuristicOptions with_memo;
    with_memo.memo = &memo;
    for (const auto& [how, opts] : {std::pair{"memo-less", HeuristicOptions{}},
                                    std::pair{"fresh memo", with_memo},
                                    std::pair{"warm memo", with_memo}}) {
      const std::uint64_t screened_before =
          furrow_counter("placement.migration.screened");
      const auto r = solve_heuristic(c.problem, opts);
      EXPECT_EQ(placement_digest(r), c.digest) << c.name << ", " << how;
      EXPECT_GT(furrow_counter("placement.migration.screened"),
                screened_before)
          << c.name << ", " << how << ": no running seed's move was screened";
    }
  }
  EXPECT_GT(furrow_counter("placement.migration.applied"), applied_before);

  // With no seed running anywhere, every move is a fresh seed's: priced,
  // never screened.
  GeneratorSpec spec;
  spec.n_switches = 24;
  spec.n_tasks = 6;
  spec.seeds_per_task = 20;
  spec.seed = 5;
  const std::uint64_t screened_before =
      furrow_counter("placement.migration.screened");
  solve_heuristic(generate_problem(spec));
  EXPECT_EQ(furrow_counter("placement.migration.screened"), screened_before);
}

}  // namespace
}  // namespace farm::placement

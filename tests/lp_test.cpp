// Tests for the simplex LP and branch-and-bound MILP solvers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "dense_inverse.h"
#include "dense_tableau.h"
#include "lp/milp.h"
#include "lp/simplex.h"
#include "placement/generator.h"
#include "placement/switch_lp.h"
#include "util/rng.h"

namespace farm::lp {
namespace {

constexpr double kTol = 1e-6;

// Beale (1955): the classic LP on which Dantzig's rule cycles forever
// under naive tie-breaking. Optimum -1/20 at x = (1/25, 0, 1, 0).
Model beale_model() {
  Model m;
  m.set_maximize(false);
  VarId x1 = m.add_continuous("x1", 0, kInf, -0.75);
  VarId x2 = m.add_continuous("x2", 0, kInf, 150);
  VarId x3 = m.add_continuous("x3", 0, kInf, -0.02);
  VarId x4 = m.add_continuous("x4", 0, kInf, 6);
  m.add_constraint("c1", {{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}},
                   Sense::kLe, 0);
  m.add_constraint("c2", {{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}},
                   Sense::kLe, 0);
  m.add_constraint("c3", {{x3, 1}}, Sense::kLe, 1);
  return m;
}

// Thirty copies of the same binding constraint over six variables: every
// ratio test is a 30-way tie. Optimum 1.05, all weight on the last one.
Model thirty_copies_model() {
  Model m;
  std::vector<VarId> xs;
  for (int j = 0; j < 6; ++j)
    xs.push_back(m.add_continuous("x", 0, kInf, 1 + 0.01 * j));
  for (int i = 0; i < 30; ++i) {
    std::vector<Term> terms;
    for (VarId x : xs) terms.push_back({x, 1.0});
    m.add_constraint("cap", std::move(terms), Sense::kLe, 1);
  }
  return m;
}

// Random LPs mixing senses, finite/infinite upper bounds, lower-bound
// shifts and objective signs.
Model random_lp(util::Rng& rng) {
  Model m;
  m.set_maximize(rng.next_bool(0.5));
  int n = static_cast<int>(rng.next_int(2, 10));
  int k = static_cast<int>(rng.next_int(1, 8));
  for (int j = 0; j < n; ++j) {
    double ub = rng.next_bool(0.5) ? rng.next_double(1, 20) : kInf;
    double lo = rng.next_bool(0.3) ? rng.next_double(0, 0.5) : 0;
    m.add_continuous("x" + std::to_string(j), lo, ub, rng.next_double(-5, 5));
  }
  for (int i = 0; i < k; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j)
      if (rng.next_bool(0.5)) terms.push_back({j, rng.next_double(-2, 3)});
    if (terms.empty()) terms.push_back({0, 1.0});
    Sense sense = rng.next_bool(0.6)   ? Sense::kLe
                  : rng.next_bool(0.5) ? Sense::kGe
                                       : Sense::kEq;
    m.add_constraint("c" + std::to_string(i), terms, sense,
                     rng.next_double(-2, 8));
  }
  return m;
}

TEST(SimplexTest, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  →  (2, 6), obj 36.
  Model m;
  VarId x = m.add_continuous("x", 0, kInf, 3);
  VarId y = m.add_continuous("y", 0, kInf, 5);
  m.add_constraint("c1", {{x, 1}}, Sense::kLe, 4);
  m.add_constraint("c2", {{y, 2}}, Sense::kLe, 12);
  m.add_constraint("c3", {{x, 3}, {y, 2}}, Sense::kLe, 18);
  auto s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36, kTol);
  EXPECT_NEAR(s.value(x), 2, kTol);
  EXPECT_NEAR(s.value(y), 6, kTol);
}

TEST(SimplexTest, SolvesMinimizationWithGeConstraints) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2  →  (10, 0)? cost 20 vs y=...
  // 2 < 3 so push x: x = 10, y = 0, obj 20.
  Model m;
  m.set_maximize(false);
  VarId x = m.add_continuous("x", 0, kInf, 2);
  VarId y = m.add_continuous("y", 0, kInf, 3);
  m.add_constraint("demand", {{x, 1}, {y, 1}}, Sense::kGe, 10);
  m.add_constraint("xmin", {{x, 1}}, Sense::kGe, 2);
  auto s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 20, kTol);
  EXPECT_NEAR(s.value(x), 10, kTol);
}

TEST(SimplexTest, HandlesEqualityConstraints) {
  // max x + y s.t. x + y = 5, x <= 3 → obj 5.
  Model m;
  VarId x = m.add_continuous("x", 0, 3, 1);
  VarId y = m.add_continuous("y", 0, kInf, 1);
  m.add_constraint("eq", {{x, 1}, {y, 1}}, Sense::kEq, 5);
  auto s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5, kTol);
  EXPECT_NEAR(s.value(x) + s.value(y), 5, kTol);
}

TEST(SimplexTest, DetectsInfeasibility) {
  Model m;
  VarId x = m.add_continuous("x", 0, kInf, 1);
  m.add_constraint("lo", {{x, 1}}, Sense::kGe, 10);
  m.add_constraint("hi", {{x, 1}}, Sense::kLe, 5);
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  Model m;
  VarId x = m.add_continuous("x", 0, kInf, 1);
  m.add_constraint("lo", {{x, 1}}, Sense::kGe, 1);
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, RespectsVariableLowerBounds) {
  // min x + y with x >= 3, y >= 4 (bounds, not rows).
  Model m;
  m.set_maximize(false);
  VarId x = m.add_continuous("x", 3, kInf, 1);
  VarId y = m.add_continuous("y", 4, kInf, 1);
  m.add_constraint("c", {{x, 1}, {y, 1}}, Sense::kLe, 100);
  auto s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.value(x), 3, kTol);
  EXPECT_NEAR(s.value(y), 4, kTol);
  EXPECT_NEAR(s.objective, 7, kTol);
}

TEST(SimplexTest, RespectsUpperBounds) {
  Model m;
  VarId x = m.add_continuous("x", 0, 2.5, 1);
  auto s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.value(x), 2.5, kTol);
}

TEST(SimplexTest, SolvesDegenerateProblemWithoutCycling) {
  // With Dantzig's rule the simplex can cycle on Beale's example; the
  // stall-triggered Bland fallback must terminate.
  auto s = solve_lp(beale_model());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-6);
}

TEST(SimplexTest, LargeRandomFeasibleInstancesStayConsistent) {
  // Property: for random feasible covering LPs, the solution must satisfy
  // every constraint and match the objective recomputed from values.
  util::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    Model m;
    m.set_maximize(false);
    int n = static_cast<int>(rng.next_int(3, 12));
    int k = static_cast<int>(rng.next_int(2, 8));
    for (int j = 0; j < n; ++j)
      m.add_continuous("x" + std::to_string(j), 0, rng.next_double(5, 50),
                       rng.next_double(1, 10));
    for (int i = 0; i < k; ++i) {
      std::vector<Term> terms;
      for (int j = 0; j < n; ++j)
        if (rng.next_bool(0.6))
          terms.push_back({j, rng.next_double(0.5, 3)});
      if (terms.empty()) terms.push_back({0, 1.0});
      m.add_constraint("c" + std::to_string(i), terms, Sense::kGe,
                       rng.next_double(1, 4));
    }
    auto s = solve_lp(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "trial " << trial;
    double obj = 0;
    for (int j = 0; j < n; ++j) {
      double v = s.value(j);
      EXPECT_GE(v, -kTol);
      EXPECT_LE(v, m.vars()[static_cast<std::size_t>(j)].upper + kTol);
      obj += m.vars()[static_cast<std::size_t>(j)].objective * v;
    }
    EXPECT_NEAR(obj, s.objective, 1e-5);
    for (const auto& c : m.constraints()) {
      double lhs = 0;
      for (const auto& t : c.terms) lhs += t.coeff * s.value(t.var);
      EXPECT_GE(lhs, c.rhs - 1e-6) << "constraint " << c.name;
    }
  }
}

TEST(MilpTest, SolvesKnapsack) {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary → a + c (obj 17)
  // vs b + c (obj 20): 4+2=6 feasible → 20.
  Model m;
  VarId a = m.add_binary("a", 10);
  VarId b = m.add_binary("b", 13);
  VarId c = m.add_binary("c", 7);
  m.add_constraint("cap", {{a, 3}, {b, 4}, {c, 2}}, Sense::kLe, 6);
  auto s = solve_milp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 20, kTol);
  EXPECT_NEAR(s.value(a), 0, kTol);
  EXPECT_NEAR(s.value(b), 1, kTol);
  EXPECT_NEAR(s.value(c), 1, kTol);
}

TEST(MilpTest, IntegerSolutionDiffersFromRelaxation) {
  // max x s.t. 2x <= 5, x integer → 2 (relaxation: 2.5).
  Model m;
  VarId x = m.add_var("x", VarKind::kInteger, 0, 10, 1);
  m.add_constraint("c", {{x, 2}}, Sense::kLe, 5);
  auto s = solve_milp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2, kTol);
}

TEST(MilpTest, MixedIntegerContinuous) {
  // max 5y + x s.t. x <= 3.7, y binary, x + 10y <= 11 → y=1, x=1 → 6.
  Model m;
  VarId x = m.add_continuous("x", 0, 3.7, 1);
  VarId y = m.add_binary("y", 5);
  m.add_constraint("c", {{x, 1}, {y, 10}}, Sense::kLe, 11);
  auto s = solve_milp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.value(y), 1, kTol);
  EXPECT_NEAR(s.value(x), 1, kTol);
  EXPECT_NEAR(s.objective, 6, kTol);
}

TEST(MilpTest, InfeasibleIntegerModel) {
  Model m;
  VarId x = m.add_binary("x", 1);
  VarId y = m.add_binary("y", 1);
  m.add_constraint("sum", {{x, 1}, {y, 1}}, Sense::kGe, 3);
  EXPECT_EQ(solve_milp(m).status, SolveStatus::kInfeasible);
}

TEST(MilpTest, TimeoutReturnsIncumbent) {
  // A 40-item knapsack with correlated weights explores many nodes; with a
  // near-zero budget we must still get *some* feasible incumbent (from the
  // root rounding heuristic) or an honest kTimeLimit without values.
  util::Rng rng(7);
  Model m;
  std::vector<Term> cap;
  for (int i = 0; i < 40; ++i) {
    double w = rng.next_double(5, 20);
    VarId v = m.add_binary("v" + std::to_string(i), w + rng.next_double(0, 1));
    cap.push_back({v, w});
  }
  m.add_constraint("cap", cap, Sense::kLe, 100);
  MilpOptions opt;
  opt.timeout_seconds = 0.02;
  auto s = solve_milp(m, opt);
  EXPECT_TRUE(s.status == SolveStatus::kTimeLimit ||
              s.status == SolveStatus::kOptimal);
  if (s.feasible() && !s.values.empty()) {
    double w = 0;
    for (const auto& t : cap) w += t.coeff * s.value(t.var);
    EXPECT_LE(w, 100 + 1e-6);
  }
}

TEST(MilpTest, MatchesBruteForceOnRandomBinaryPrograms) {
  // Property: on small random set-packing instances the B&B optimum must
  // equal exhaustive enumeration.
  util::Rng rng(123);
  for (int trial = 0; trial < 15; ++trial) {
    int n = static_cast<int>(rng.next_int(4, 10));
    std::vector<double> profit(static_cast<std::size_t>(n));
    std::vector<std::vector<double>> rows;
    int k = static_cast<int>(rng.next_int(1, 4));
    std::vector<double> caps;
    Model m;
    for (int j = 0; j < n; ++j) {
      profit[static_cast<std::size_t>(j)] = rng.next_double(1, 10);
      m.add_binary("x" + std::to_string(j), profit[static_cast<std::size_t>(j)]);
    }
    for (int i = 0; i < k; ++i) {
      std::vector<double> row(static_cast<std::size_t>(n));
      std::vector<Term> terms;
      for (int j = 0; j < n; ++j) {
        row[static_cast<std::size_t>(j)] = rng.next_double(0, 5);
        terms.push_back({j, row[static_cast<std::size_t>(j)]});
      }
      double cap = rng.next_double(3, 12);
      caps.push_back(cap);
      rows.push_back(row);
      m.add_constraint("c" + std::to_string(i), terms, Sense::kLe, cap);
    }
    auto s = solve_milp(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "trial " << trial;

    double best = 0;
    for (int mask = 0; mask < (1 << n); ++mask) {
      bool ok = true;
      for (int i = 0; i < k && ok; ++i) {
        double lhs = 0;
        for (int j = 0; j < n; ++j)
          if (mask & (1 << j)) lhs += rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        ok = lhs <= caps[static_cast<std::size_t>(i)] + 1e-9;
      }
      if (!ok) continue;
      double obj = 0;
      for (int j = 0; j < n; ++j)
        if (mask & (1 << j)) obj += profit[static_cast<std::size_t>(j)];
      best = std::max(best, obj);
    }
    EXPECT_NEAR(s.objective, best, 1e-5) << "trial " << trial;
  }
}

TEST(SimplexTest, TerminatesOnBealeCyclingExample) {
  // The stall counter must hand over to Bland's rule — and Bland's
  // leaving-row ties must be exact, or the termination proof does not
  // apply.
  Model m = beale_model();
  LpOptions opt;
  opt.max_iterations = 10000;  // cycling would exhaust this
  auto s = solve_lp(m, opt);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, kTol);
  EXPECT_NEAR(s.value(0), 0.04, kTol);  // x1
  EXPECT_NEAR(s.value(2), 1, kTol);     // x3
}

TEST(SimplexTest, MassivelyDegenerateTiesStayFeasible) {
  // The old eps-window tie-break let best_ratio drift upward across
  // chained near-ties, leaving slightly negative basics; the two-pass
  // exact-minimum test must return a feasible optimum.
  Model m = thirty_copies_model();
  auto s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.05, kTol);  // all weight on the best variable
  double total = 0;
  for (VarId x = 0; x < 6; ++x) {
    EXPECT_GE(s.value(x), -1e-9);  // no negative basics from ratio drift
    total += s.value(x);
  }
  EXPECT_LE(total, 1 + 1e-6);
}

// --- Revised sparse simplex vs the dense tableau oracle ----------------------

// On random_lp instances, solve_lp and the dense oracle (dense_tableau.h)
// must agree on status and (when optimal) on the objective, and the
// sparse solution must satisfy the model exactly like the dense one.
TEST(SimplexTest, SparseAndDenseAgreeOnRandomInstances) {
  util::Rng rng(2024);
  int optimal = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Model m = random_lp(rng);
    const int n = static_cast<int>(m.num_vars());
    auto a = solve_lp(m);
    auto b = solve_lp_dense(m);
    ASSERT_EQ(a.status, b.status) << "trial " << trial;
    if (a.status != SolveStatus::kOptimal) continue;
    ++optimal;
    EXPECT_NEAR(a.objective, b.objective, 1e-6) << "trial " << trial;
    // The sparse solution satisfies every constraint and bound.
    for (int j = 0; j < n; ++j) {
      const auto& v = m.vars()[static_cast<std::size_t>(j)];
      EXPECT_GE(a.value(j), v.lower - 1e-7) << "trial " << trial;
      EXPECT_LE(a.value(j), v.upper + 1e-7) << "trial " << trial;
    }
    for (const auto& c : m.constraints()) {
      double lhs = 0;
      for (const auto& t : c.terms) lhs += t.coeff * a.value(t.var);
      if (c.sense == Sense::kLe) {
        EXPECT_LE(lhs, c.rhs + 1e-6);
      }
      if (c.sense == Sense::kGe) {
        EXPECT_GE(lhs, c.rhs - 1e-6);
      }
      if (c.sense == Sense::kEq) {
        EXPECT_NEAR(lhs, c.rhs, 1e-6);
      }
    }
  }
  EXPECT_GE(optimal, 10) << "suite degenerated: too few optimal instances";
}

// k×k circulant LPs: every row and column is a cyclic shift of one
// vector of decimal coefficients and every cost is equal, so pricing
// meets exact mathematical ties that the last bit of y decides. A kernel
// that sums y or a reduced cost in another order than the dense sweep
// takes a different pivot on some of them.
Model circulant_lp(util::Rng& rng) {
  static constexpr double kValues[] = {0.1, 0.2, 0.3, 0.7, 1.1, 1.3, 0.6, 0};
  const int k = static_cast<int>(rng.next_int(3, 13));
  std::vector<double> v(static_cast<std::size_t>(k));
  for (double& x : v) x = kValues[rng.next_below(8)];
  const double cost = kValues[rng.next_below(7)];
  const double rhs = 10 * kValues[rng.next_below(7)];
  Model m;
  for (int j = 0; j < k; ++j) m.add_continuous("x", 0, kInf, cost);
  for (int i = 0; i < k; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < k; ++j)
      if (double a = v[static_cast<std::size_t>((j - i + k) % k)]; a != 0)
        terms.push_back({j, a});
    if (terms.empty()) terms.push_back({i, 1.0});
    m.add_constraint("c", std::move(terms), Sense::kLe, rhs);
  }
  return m;
}

// solve_lp skips only exact zeros of the basis inverse, y and w, so it
// must reproduce the dense-inverse sweep (dense_inverse.h) bit for bit:
// same status, same iteration count, same objective and value bytes.
::testing::AssertionResult same_bits(const Model& m) {
  const Solution a = solve_lp(m);
  const Solution b = solve_lp_dense_inverse(m);
  if (a.status != b.status)
    return ::testing::AssertionFailure()
           << "status " << static_cast<int>(a.status) << " vs "
           << static_cast<int>(b.status);
  if (a.simplex_iterations != b.simplex_iterations)
    return ::testing::AssertionFailure()
           << "iterations " << a.simplex_iterations << " vs "
           << b.simplex_iterations;
  if (std::memcmp(&a.objective, &b.objective, sizeof(double)) != 0)
    return ::testing::AssertionFailure()
           << "objective " << a.objective << " vs " << b.objective;
  if (a.values.size() != b.values.size())
    return ::testing::AssertionFailure() << "value count";
  for (std::size_t j = 0; j < a.values.size(); ++j)
    if (std::memcmp(&a.values[j], &b.values[j], sizeof(double)) != 0)
      return ::testing::AssertionFailure()
             << "value " << j << ": " << a.values[j] << " vs " << b.values[j];
  return ::testing::AssertionSuccess();
}

TEST(SimplexTest, IndexedKernelMatchesDenseInverseBitForBit) {
  util::Rng rng(77);
  for (int trial = 0; trial < 400; ++trial)
    EXPECT_TRUE(same_bits(random_lp(rng))) << "random trial " << trial;
  for (int trial = 0; trial < 300; ++trial)
    EXPECT_TRUE(same_bits(circulant_lp(rng))) << "circulant trial " << trial;
  EXPECT_TRUE(same_bits(beale_model())) << "Beale";
  EXPECT_TRUE(same_bits(thirty_copies_model())) << "thirty copies";

  // Redistribution LPs of 1..40 generated seeds pinned to one switch,
  // sized so that most of them are feasible.
  placement::GeneratorSpec spec;
  spec.n_switches = 4;
  spec.n_tasks = 10;
  spec.seeds_per_task = 4;
  spec.seed = 11;
  const auto problem = placement::generate_problem(spec);
  int optimal = 0;
  for (std::size_t k = 1; k <= problem.seeds.size(); ++k) {
    std::vector<placement::PinnedSeed> pinned;
    for (std::size_t i = 0; i < k; ++i) {
      const auto& seed = problem.seeds[i];
      pinned.push_back({&seed, static_cast<int>(i % seed.variants.size())});
    }
    placement::SwitchModel sw = problem.switches[k % problem.switches.size()];
    sw.capacity.vCPU *= static_cast<double>(k + 3) / 4;
    sw.capacity.RAM *= static_cast<double>(k + 3) / 4;
    const Model m = placement::redistribution_model(sw, pinned, {});
    EXPECT_TRUE(same_bits(m)) << k << " pinned seeds";
    optimal += solve_lp(m).status == SolveStatus::kOptimal;
  }
  EXPECT_EQ(problem.seeds.size(), 40u);
  EXPECT_GE(optimal, 30) << "too few feasible redistribution LPs";
}

// optimal_value against solve_lp: optimal on exactly the same instances,
// with objectives within 1e-9 relative. Its fold changes the start and so,
// on degenerate LPs, the optimal vertex; the optimum must not move.
::testing::AssertionResult same_value(const Model& m) {
  const Solution exact = solve_lp(m);
  const std::optional<double> value = optimal_value(m);
  const bool optimal = exact.status == SolveStatus::kOptimal;
  if (optimal != value.has_value())
    return ::testing::AssertionFailure()
           << "solve_lp status " << static_cast<int>(exact.status)
           << ", optimal_value " << (value ? "optimal" : "nullopt");
  if (optimal && std::abs(*value - exact.objective) >
                     1e-9 * std::max(1.0, std::abs(exact.objective)))
    return ::testing::AssertionFailure()
           << "value " << *value << " vs objective " << exact.objective;
  return ::testing::AssertionSuccess();
}

TEST(SimplexTest, OptimalValueMatchesSolveLp) {
  util::Rng rng(31);
  for (int trial = 0; trial < 400; ++trial)
    EXPECT_TRUE(same_value(random_lp(rng))) << "random trial " << trial;
  for (int trial = 0; trial < 300; ++trial)
    EXPECT_TRUE(same_value(circulant_lp(rng))) << "circulant trial " << trial;
  EXPECT_TRUE(same_value(beale_model())) << "Beale";
  EXPECT_TRUE(same_value(thirty_copies_model())) << "thirty copies";

  // Redistribution LPs of 1..40 generated seeds pinned to one switch, with
  // and without reserved residue, then with the capacity shrunk step by
  // step until the LP is infeasible.
  placement::GeneratorSpec spec;
  spec.n_switches = 4;
  spec.n_tasks = 10;
  spec.seeds_per_task = 4;
  spec.seed = 11;
  const auto problem = placement::generate_problem(spec);
  const placement::ResourcesValue residue{0.5, 64, 8, 0.5};
  int optimal = 0, infeasible = 0;
  for (std::size_t k = 1; k <= problem.seeds.size(); ++k) {
    std::vector<placement::PinnedSeed> pinned;
    for (std::size_t i = 0; i < k; ++i) {
      const auto& seed = problem.seeds[i];
      pinned.push_back({&seed, static_cast<int>(i % seed.variants.size())});
    }
    placement::SwitchModel sw = problem.switches[k % problem.switches.size()];
    sw.capacity.vCPU *= static_cast<double>(k + 3) / 4;
    sw.capacity.RAM *= static_cast<double>(k + 3) / 4;
    for (const auto& reserved : {placement::ResourcesValue{}, residue}) {
      placement::SwitchModel shrunk = sw;
      for (int step = 0; step < 64; ++step) {
        const Model m = placement::redistribution_model(shrunk, pinned, reserved);
        EXPECT_TRUE(same_value(m))
            << k << " pinned seeds, reserved vCPU " << reserved.vCPU
            << ", shrink step " << step;
        if (solve_lp(m).status != SolveStatus::kOptimal) {
          ++infeasible;
          break;
        }
        if (step == 0) ++optimal;
        shrunk.capacity.vCPU *= 0.8;
        shrunk.capacity.RAM *= 0.8;
        shrunk.capacity.TCAM *= 0.8;
        shrunk.capacity.PCIe *= 0.8;
      }
    }
  }
  EXPECT_GE(optimal, 60) << "too few feasible redistribution LPs";
  EXPECT_GE(infeasible, 60) << "too few LPs shrunk to infeasibility";
}

// The fold's edges, each against solve_lp as well as its known optimum.
TEST(SimplexTest, OptimalValueFoldsOneTermRowsIntoBounds) {
  {  // Every row is a singleton: no row remains.
    Model m;
    VarId x = m.add_continuous("x", 0, kInf, 1);
    VarId y = m.add_continuous("y", 0, kInf, 2);
    m.add_constraint("x", {{x, 1}}, Sense::kLe, 3);
    m.add_constraint("y", {{y, 2}}, Sense::kLe, 4);
    EXPECT_TRUE(same_value(m));
    EXPECT_DOUBLE_EQ(*optimal_value(m), 7);
  }
  {  // An equality singleton fixes its variable.
    Model m;
    VarId x = m.add_continuous("x", 0, kInf, 1);
    VarId y = m.add_continuous("y", 0, kInf, 3);
    m.add_constraint("fix", {{x, 2}}, Sense::kEq, 5);
    m.add_constraint("sum", {{x, 1}, {y, 1}}, Sense::kLe, 10);
    EXPECT_TRUE(same_value(m));
    EXPECT_DOUBLE_EQ(*optimal_value(m), 2.5 + 3 * 7.5);
  }
  {  // A negative-coefficient ≥ singleton is an upper bound.
    Model m;
    VarId x = m.add_continuous("x", 0, kInf, 1);
    m.add_constraint("cap", {{x, -2}}, Sense::kGe, -6);
    EXPECT_TRUE(same_value(m));
    EXPECT_DOUBLE_EQ(*optimal_value(m), 3);
  }
  {  // Two singletons on one variable: the tighter one wins, both ways.
    Model lo;
    lo.set_maximize(false);
    VarId x = lo.add_continuous("x", 0, kInf, 1);
    lo.add_constraint("a", {{x, 1}}, Sense::kGe, 1);
    lo.add_constraint("b", {{x, 1}}, Sense::kGe, 2);
    EXPECT_TRUE(same_value(lo));
    EXPECT_DOUBLE_EQ(*optimal_value(lo), 2);
    Model hi;
    VarId y = hi.add_continuous("y", 0, kInf, 1);
    hi.add_constraint("a", {{y, 1}}, Sense::kLe, 5);
    hi.add_constraint("b", {{y, 1}}, Sense::kLe, 4);
    EXPECT_TRUE(same_value(hi));
    EXPECT_DOUBLE_EQ(*optimal_value(hi), 4);
  }
  {  // A singleton past the variable's other bound is infeasible.
    Model m;
    VarId x = m.add_continuous("x", 0, 5, 1);
    VarId y = m.add_continuous("y", 0, kInf, 1);
    m.add_constraint("sum", {{x, 1}, {y, 1}}, Sense::kLe, 10);
    m.add_constraint("over", {{x, 1}}, Sense::kGe, 6);
    EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);
    EXPECT_FALSE(optimal_value(m).has_value());
  }
}

TEST(SimplexTest, CellBudgetHelperBoundaryAndOverflow) {
  // rows * (cols + 1) == budget is allowed; one more cell is not.
  EXPECT_FALSE(exceeds_cell_budget(10, 9, 100));   // 10 * 10 == 100
  EXPECT_TRUE(exceeds_cell_budget(10, 10, 100));   // 10 * 11 > 100
  EXPECT_FALSE(exceeds_cell_budget(0, 1'000'000, 1));  // no rows, no cells
  // Sizes whose product overflows 64 bits must still reject cleanly.
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_TRUE(exceeds_cell_budget(huge, huge, huge));
  EXPECT_TRUE(exceeds_cell_budget(
      2, std::numeric_limits<std::size_t>::max(), 1'000'000));
}

// Sweeping the budget across the whole interesting range must show
// solve_lp and the dense oracle flipping from rejection (kTimeLimit) to
// solving at exactly the same threshold — solve_lp measures the instance
// by its dense-equivalent dimensions.
TEST(SimplexTest, CellBudgetRejectsIdenticallyAcrossAlgorithms) {
  Model m;
  VarId x = m.add_continuous("x", 0, 9, 2);     // finite ub → dense ub row
  VarId y = m.add_continuous("y", 0, kInf, 3);
  VarId z = m.add_continuous("z", 1, 4, 1);     // shifted + ub row
  m.add_constraint("c1", {{x, 1}, {y, 2}}, Sense::kLe, 10);
  m.add_constraint("c2", {{y, 1}, {z, -1}}, Sense::kGe, 1);
  m.add_constraint("c3", {{x, 1}, {z, 1}}, Sense::kEq, 5);

  int transitions = 0;
  SolveStatus prev_sparse = SolveStatus::kTimeLimit;
  for (std::size_t cells = 1; cells <= 400; ++cells) {
    LpOptions opts;
    opts.max_tableau_cells = cells;
    auto a = solve_lp(m, opts);
    auto b = solve_lp_dense(m, opts);
    ASSERT_EQ(a.status, b.status) << "budget " << cells;
    if (a.status != prev_sparse) {
      ++transitions;
      prev_sparse = a.status;
    }
  }
  // Exactly one flip: rejected below the threshold, optimal above it.
  EXPECT_EQ(transitions, 1);
  EXPECT_EQ(prev_sparse, SolveStatus::kOptimal);
}

}  // namespace
}  // namespace farm::lp

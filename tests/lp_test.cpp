// Tests for the simplex LP and branch-and-bound MILP solvers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dense_tableau.h"
#include "lp/milp.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace farm::lp {
namespace {

constexpr double kTol = 1e-6;

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
  // Classic Beale cycling example (with Dantzig rule simplex can cycle;
  // the stall-triggered Bland fallback must terminate).
  Model m;
  m.set_maximize(false);
  VarId x1 = m.add_continuous("x1", 0, kInf, -0.75);
  VarId x2 = m.add_continuous("x2", 0, kInf, 150);
  VarId x3 = m.add_continuous("x3", 0, kInf, -0.02);
  VarId x4 = m.add_continuous("x4", 0, kInf, 6);
  m.add_constraint("r1", {{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}},
                   Sense::kLe, 0);
  m.add_constraint("r2", {{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}},
                   Sense::kLe, 0);
  m.add_constraint("r3", {{x3, 1}}, Sense::kLe, 1);
  auto s = solve_lp(m);
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
  // Beale (1955): the classic LP on which Dantzig's rule cycles forever
  // under naive tie-breaking. The stall counter must hand over to Bland's
  // rule — and Bland's leaving-row ties must be exact, or the termination
  // proof does not apply. Optimum -1/20 at x = (1/25, 0, 1, 0).
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
  LpOptions opt;
  opt.max_iterations = 10000;  // cycling would exhaust this
  auto s = solve_lp(m, opt);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, kTol);
  EXPECT_NEAR(s.value(x1), 0.04, kTol);
  EXPECT_NEAR(s.value(x3), 1, kTol);
}

TEST(SimplexTest, MassivelyDegenerateTiesStayFeasible) {
  // Thirty copies of the same binding constraint make every ratio-test a
  // 30-way tie. The old eps-window tie-break let best_ratio drift upward
  // across chained near-ties, leaving slightly negative basics; the
  // two-pass exact-minimum test must return a feasible optimum.
  Model m;
  std::vector<VarId> xs;
  for (int j = 0; j < 6; ++j)
    xs.push_back(m.add_continuous("x", 0, kInf, 1 + 0.01 * j));
  for (int i = 0; i < 30; ++i) {
    std::vector<Term> terms;
    for (VarId x : xs) terms.push_back({x, 1.0});
    m.add_constraint("cap", std::move(terms), Sense::kLe, 1);
  }
  auto s = solve_lp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.05, kTol);  // all weight on the best variable
  double total = 0;
  for (VarId x : xs) {
    EXPECT_GE(s.value(x), -1e-9);  // no negative basics from ratio drift
    total += s.value(x);
  }
  EXPECT_LE(total, 1 + 1e-6);
}

// --- Revised sparse simplex vs the dense tableau oracle ----------------------

// Random LPs mixing senses, finite/infinite upper bounds, and objective
// signs: solve_lp and the dense oracle (dense_tableau.h) must agree on
// status and (when optimal) on the objective, and the sparse solution must
// satisfy the model exactly like the dense one.
TEST(SimplexTest, SparseAndDenseAgreeOnRandomInstances) {
  util::Rng rng(2024);
  int optimal = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Model m;
    m.set_maximize(rng.next_bool(0.5));
    int n = static_cast<int>(rng.next_int(2, 10));
    int k = static_cast<int>(rng.next_int(1, 8));
    for (int j = 0; j < n; ++j) {
      double ub = rng.next_bool(0.5) ? rng.next_double(1, 20) : kInf;
      double lo = rng.next_bool(0.3) ? rng.next_double(0, 0.5) : 0;
      m.add_continuous("x" + std::to_string(j), lo, ub,
                       rng.next_double(-5, 5));
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
      if (c.sense == Sense::kLe) EXPECT_LE(lhs, c.rhs + 1e-6);
      if (c.sense == Sense::kGe) EXPECT_GE(lhs, c.rhs - 1e-6);
      if (c.sense == Sense::kEq) EXPECT_NEAR(lhs, c.rhs, 1e-6);
    }
  }
  EXPECT_GE(optimal, 10) << "suite degenerated: too few optimal instances";
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

// Dense two-phase tableau simplex — the oracle lp_test checks solve_lp
// (the revised simplex, src/lp/simplex.cpp) against. Finite upper bounds
// become explicit rows, and every pivot rewrites the whole tableau. It
// refuses oversized instances through exceeds_cell_budget on the same
// dense dimensions solve_lp measures, so both reject identically.
#include "dense_tableau.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "util/check.h"

namespace farm::lp {

namespace {

constexpr double kEps = 1e-9;
constexpr double kPivotEps = 1e-7;

struct Tableau {
  // rows: one per constraint. cols: structural (shifted) + slack +
  // artificial + rhs (last).
  std::vector<std::vector<double>> rows;
  std::vector<int> basis;       // basic variable per row
  std::size_t n_total = 0;      // columns excluding rhs
  std::size_t n_struct = 0;     // structural variables
  std::size_t first_artificial = 0;

  double& rhs(std::size_t i) { return rows[i][n_total]; }
};

class SimplexSolver {
 public:
  SimplexSolver(const Model& model, const LpOptions& opt)
      : model_(model), opt_(opt), start_(std::chrono::steady_clock::now()) {}

  Solution run();

 private:
  bool deadline_hit() {
    // Checked every iteration: one pivot on a large tableau can take tens
    // of milliseconds, so throttled checks would overshoot the budget.
    if (deadline_flag_) return true;
    if (opt_.deadline_seconds == kInf) return false;
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
    deadline_flag_ = elapsed > opt_.deadline_seconds;
    return deadline_flag_;
  }

  // Runs simplex iterations on `t` minimizing the objective expressed by
  // reduced-cost row `red` (size n_total+1; last entry = -objective value).
  // `allow` masks columns permitted to enter the basis.
  // Returns kOptimal / kUnbounded / kTimeLimit / kIterationLimit.
  SolveStatus iterate(Tableau& t, std::vector<double>& red,
                      const std::vector<bool>& allow);

  const Model& model_;
  LpOptions opt_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t iterations_ = 0;
  bool deadline_flag_ = false;
};

SolveStatus SimplexSolver::iterate(Tableau& t, std::vector<double>& red,
                                   const std::vector<bool>& allow) {
  const std::size_t m = t.rows.size();
  std::uint64_t stall = 0;
  while (true) {
    if (iterations_ >= opt_.max_iterations) return SolveStatus::kIterationLimit;
    if (deadline_hit()) return SolveStatus::kTimeLimit;
    ++iterations_;

    // Entering column: Dantzig rule normally; Bland (first eligible) after
    // a long degenerate stall to guarantee termination.
    bool bland = stall > 2 * (m + t.n_total);
    int enter = -1;
    double best = -kEps;
    for (std::size_t j = 0; j < t.n_total; ++j) {
      if (!allow[j]) continue;
      if (red[j] < (bland ? -kEps : best)) {
        enter = static_cast<int>(j);
        if (bland) break;
        best = red[j];
      }
    }
    if (enter < 0) return SolveStatus::kOptimal;

    // Ratio test, two passes: first the exact minimum ratio, then the
    // smallest basic-variable index among the rows at that minimum. The
    // old single pass updated best_ratio through an eps window, so chained
    // near-ties could drift it several eps above the true minimum and pick
    // a row whose pivot leaves a slightly negative rhs — and with an
    // approximate tie-break Bland's anti-cycling proof does not apply.
    int leave = -1;
    double best_ratio = 0;
    for (std::size_t i = 0; i < m; ++i) {
      double a = t.rows[i][static_cast<std::size_t>(enter)];
      if (a <= kPivotEps) continue;
      double ratio = t.rhs(i) / a;
      if (leave < 0 || ratio < best_ratio) {
        leave = static_cast<int>(i);
        best_ratio = ratio;
      }
    }
    if (leave < 0) return SolveStatus::kUnbounded;
    // Bland mode needs exact ties for termination; Dantzig mode keeps the
    // historical eps window, now anchored at the true minimum (bounded
    // error instead of chained drift).
    double tie_tol = bland ? 0.0 : kEps;
    for (std::size_t i = 0; i < m; ++i) {
      double a = t.rows[i][static_cast<std::size_t>(enter)];
      if (a <= kPivotEps) continue;
      double ratio = t.rhs(i) / a;
      if (ratio <= best_ratio + tie_tol &&
          t.basis[i] < t.basis[static_cast<std::size_t>(leave)])
        leave = static_cast<int>(i);
    }
    stall = best_ratio < kEps ? stall + 1 : 0;

    // Pivot.
    auto li = static_cast<std::size_t>(leave);
    auto ej = static_cast<std::size_t>(enter);
    auto& prow = t.rows[li];
    double pivot = prow[ej];
    for (double& v : prow) v /= pivot;
    for (std::size_t i = 0; i < m; ++i) {
      if (i == li) continue;
      double f = t.rows[i][ej];
      if (std::abs(f) < kEps) continue;
      auto& row = t.rows[i];
      for (std::size_t j = 0; j <= t.n_total; ++j) row[j] -= f * prow[j];
    }
    double f = red[ej];
    if (std::abs(f) > 0) {
      for (std::size_t j = 0; j <= t.n_total; ++j) red[j] -= f * prow[j];
    }
    t.basis[li] = enter;
  }
}

Solution SimplexSolver::run() {
  Solution sol;
  const auto& vars = model_.vars();
  const auto& cons = model_.constraints();
  const std::size_t n = vars.size();

  // Count rows: one per constraint + one per finite (shifted) upper bound.
  std::vector<double> shift(n), ub(n);
  std::size_t ub_rows = 0;
  for (std::size_t j = 0; j < n; ++j) {
    shift[j] = vars[j].lower;
    ub[j] = vars[j].upper - vars[j].lower;
    if (ub[j] < kInf) ++ub_rows;
  }
  const std::size_t m = cons.size() + ub_rows;

  // Early size guard: row skeletons below are dense (n doubles per row),
  // so an oversized instance must be refused BEFORE densification — the
  // tableau itself can only be larger.
  if (exceeds_cell_budget(m, n, opt_.max_tableau_cells)) {
    sol.status = SolveStatus::kTimeLimit;  // instance too big: solver gives up
    return sol;
  }

  // Row skeletons in (coeffs over structural vars, sense, rhs) form.
  struct Row {
    std::vector<double> a;
    Sense sense;
    double rhs;
  };
  std::vector<Row> raw;
  raw.reserve(m);
  for (const auto& c : cons) {
    Row r{std::vector<double>(n, 0.0), c.sense, c.rhs};
    for (const auto& term : c.terms) {
      FARM_CHECK(term.var >= 0 && static_cast<std::size_t>(term.var) < n);
      r.a[static_cast<std::size_t>(term.var)] += term.coeff;
      r.rhs -= term.coeff * shift[static_cast<std::size_t>(term.var)];
    }
    raw.push_back(std::move(r));
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (ub[j] >= kInf) continue;
    Row r{std::vector<double>(n, 0.0), Sense::kLe, ub[j]};
    r.a[j] = 1;
    raw.push_back(std::move(r));
  }

  // Normalize rhs >= 0.
  for (auto& r : raw) {
    if (r.rhs < 0) {
      for (double& v : r.a) v = -v;
      r.rhs = -r.rhs;
      r.sense = r.sense == Sense::kLe   ? Sense::kGe
                : r.sense == Sense::kGe ? Sense::kLe
                                        : Sense::kEq;
    }
  }

  // Column layout: [structural | slack/surplus | artificial | rhs].
  std::size_t n_slack = 0, n_art = 0;
  for (const auto& r : raw) {
    if (r.sense != Sense::kEq) ++n_slack;
    if (r.sense != Sense::kLe) ++n_art;
  }
  Tableau t;
  t.n_struct = n;
  t.n_total = n + n_slack + n_art;
  t.first_artificial = n + n_slack;

  if (exceeds_cell_budget(raw.size(), t.n_total, opt_.max_tableau_cells)) {
    sol.status = SolveStatus::kTimeLimit;  // instance too big: solver gives up
    return sol;
  }

  t.rows.assign(raw.size(), std::vector<double>(t.n_total + 1, 0.0));
  t.basis.assign(raw.size(), -1);
  std::size_t slack_next = n, art_next = t.first_artificial;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto& row = t.rows[i];
    std::copy(raw[i].a.begin(), raw[i].a.end(), row.begin());
    row[t.n_total] = raw[i].rhs;
    switch (raw[i].sense) {
      case Sense::kLe:
        row[slack_next] = 1;
        t.basis[i] = static_cast<int>(slack_next++);
        break;
      case Sense::kGe:
        row[slack_next] = -1;
        ++slack_next;
        row[art_next] = 1;
        t.basis[i] = static_cast<int>(art_next++);
        break;
      case Sense::kEq:
        row[art_next] = 1;
        t.basis[i] = static_cast<int>(art_next++);
        break;
    }
  }

  std::vector<bool> allow(t.n_total, true);

  // --- Phase 1: minimize sum of artificials -------------------------------
  if (n_art > 0) {
    std::vector<double> red(t.n_total + 1, 0.0);
    // w = Σ artificial = Σ_{rows with basic artificial} (rhs - Σ a_j x_j)
    for (std::size_t i = 0; i < t.rows.size(); ++i) {
      if (static_cast<std::size_t>(t.basis[i]) < t.first_artificial) continue;
      for (std::size_t j = 0; j <= t.n_total; ++j) red[j] -= t.rows[i][j];
    }
    // Reduced costs of basic vars must be 0; artificial columns carry +1.
    for (std::size_t j = t.first_artificial; j < t.n_total; ++j) red[j] += 1;

    SolveStatus st = iterate(t, red, allow);
    sol.simplex_iterations = iterations_;
    if (st == SolveStatus::kTimeLimit || st == SolveStatus::kIterationLimit) {
      sol.status = st;
      return sol;
    }
    double w = -red[t.n_total];
    if (w > 1e-6) {
      sol.status = SolveStatus::kInfeasible;
      return sol;
    }
    // Drive remaining basic artificials out where possible; redundant rows
    // keep a zero-valued artificial which we simply forbid from re-entering.
    for (std::size_t i = 0; i < t.rows.size(); ++i) {
      if (static_cast<std::size_t>(t.basis[i]) < t.first_artificial) continue;
      for (std::size_t j = 0; j < t.first_artificial; ++j) {
        if (std::abs(t.rows[i][j]) > kPivotEps) {
          // Pivot (i, j) manually.
          auto& prow = t.rows[i];
          double pivot = prow[j];
          for (double& v : prow) v /= pivot;
          for (std::size_t k = 0; k < t.rows.size(); ++k) {
            if (k == i) continue;
            double f = t.rows[k][j];
            if (std::abs(f) < kEps) continue;
            for (std::size_t c = 0; c <= t.n_total; ++c)
              t.rows[k][c] -= f * prow[c];
          }
          t.basis[i] = static_cast<int>(j);
          break;
        }
      }
    }
    for (std::size_t j = t.first_artificial; j < t.n_total; ++j)
      allow[j] = false;
  }

  // --- Phase 2: original objective (as minimization) ----------------------
  std::vector<double> cost(t.n_total, 0.0);
  double sign = model_.maximize() ? -1.0 : 1.0;
  for (std::size_t j = 0; j < n; ++j) cost[j] = sign * vars[j].objective;

  std::vector<double> red(t.n_total + 1, 0.0);
  for (std::size_t j = 0; j < t.n_total; ++j) red[j] = cost[j];
  double obj0 = 0;
  for (std::size_t i = 0; i < t.rows.size(); ++i) {
    double cb = cost[static_cast<std::size_t>(t.basis[i])];
    if (cb == 0) continue;
    for (std::size_t j = 0; j < t.n_total; ++j) red[j] -= cb * t.rows[i][j];
    obj0 += cb * t.rhs(i);
  }
  red[t.n_total] = -obj0;

  SolveStatus st = iterate(t, red, allow);
  sol.simplex_iterations = iterations_;
  if (st != SolveStatus::kOptimal) {
    sol.status = st;
    return sol;
  }

  // Extract structural values.
  sol.values.assign(n, 0.0);
  for (std::size_t i = 0; i < t.rows.size(); ++i) {
    auto b = static_cast<std::size_t>(t.basis[i]);
    if (b < n) sol.values[b] = t.rhs(i);
  }
  double obj = 0;
  for (std::size_t j = 0; j < n; ++j) {
    sol.values[j] += shift[j];
    obj += vars[j].objective * sol.values[j];
  }
  sol.objective = obj;
  sol.status = SolveStatus::kOptimal;
  sol.solve_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
  return sol;
}

}  // namespace

Solution solve_lp_dense(const Model& model, const LpOptions& options) {
  SimplexSolver solver(model, options);
  return solver.run();
}

}  // namespace farm::lp

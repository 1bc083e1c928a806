// The revised simplex with a dense basis inverse swept in full: every
// BTRAN, pricing pass, ratio test and inverse update visits all m (or m²)
// entries, zeros included. solve_lp (src/lp/simplex.cpp) visits only the
// entries that can be nonzero; lp_test requires the two to agree bit for
// bit — same status, same iteration count, same objective and value bytes.
//
// Same rules as solve_lp: Dantzig pricing with first-index tie-break,
// Bland's rule after a degenerate stall longer than 2·(m + n_total)
// iterations, and an exact-minimum two-pass ratio test whose tie window
// collapses to zero in Bland mode.
#include "dense_inverse.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace farm::lp {

namespace {

constexpr double kEps = 1e-9;
constexpr double kPivotEps = 1e-7;

// Immutable constraint matrix, one sparse column per variable
// (structural, then slack/surplus, then artificial). Row indices within
// a column are strictly increasing.
struct SparseColumns {
  std::vector<std::uint32_t> start;  // size n_total + 1
  std::vector<std::uint32_t> row;
  std::vector<double> val;

  std::size_t begin(std::size_t j) const { return start[j]; }
  std::size_t end(std::size_t j) const { return start[j + 1]; }
};

enum class VarState : std::uint8_t { kAtLower, kAtUpper, kBasic };

class RevisedSolver {
 public:
  RevisedSolver(const Model& model, const LpOptions& opt)
      : model_(model), opt_(opt), start_(std::chrono::steady_clock::now()) {}

  Solution run();

 private:
  bool deadline_hit() {
    if (deadline_flag_) return true;
    if (opt_.deadline_seconds == kInf) return false;
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
    deadline_flag_ = elapsed > opt_.deadline_seconds;
    return deadline_flag_;
  }

  // w = B⁻¹ · A_j (FTRAN against the dense inverse).
  void ftran(std::size_t j, std::vector<double>& w) const {
    const std::size_t m = m_;
    std::fill(w.begin(), w.end(), 0.0);
    for (std::size_t k = cols_.begin(j); k < cols_.end(j); ++k) {
      const std::size_t r = cols_.row[k];
      const double v = cols_.val[k];
      const double* col = binv_.data() + r;
      for (std::size_t i = 0; i < m; ++i) w[i] += col[i * m] * v;
    }
  }

  // Gauss-Jordan update of every row after `enter`'s column w pivots on
  // row `leave`.
  void update_binv(const std::vector<double>& w, std::size_t leave) {
    const std::size_t m = m_;
    double* prow = binv_.data() + leave * m;
    const double piv = w[leave];
    for (std::size_t c = 0; c < m; ++c) prow[c] /= piv;
    for (std::size_t i = 0; i < m; ++i) {
      if (i == leave) continue;
      const double f = w[i];
      if (std::abs(f) < kEps) continue;
      double* row = binv_.data() + i * m;
      for (std::size_t c = 0; c < m; ++c) row[c] -= f * prow[c];
    }
  }

  // Simplex iterations minimizing `cost`; `allow` masks entering columns.
  SolveStatus iterate(const std::vector<double>& cost,
                      const std::vector<bool>& allow);

  void drive_artificials_out();

  const Model& model_;
  LpOptions opt_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t iterations_ = 0;
  bool deadline_flag_ = false;

  std::size_t m_ = 0;           // constraint rows (no upper-bound rows)
  std::size_t n_total_ = 0;     // structural + slack + artificial
  std::size_t first_artificial_ = 0;
  SparseColumns cols_;
  std::vector<double> ub_;      // shifted upper bound per column (kInf = none)
  std::vector<double> binv_;    // dense m×m basis inverse, row-major
  std::vector<int> basis_;      // basic column per row
  std::vector<VarState> state_;
  std::vector<double> xb_;      // values of basic variables, by row
  std::vector<double> scratch_w_;
};

SolveStatus RevisedSolver::iterate(const std::vector<double>& cost,
                                   const std::vector<bool>& allow) {
  const std::size_t m = m_;
  std::vector<double> y(m), w(m);
  std::uint64_t stall = 0;
  while (true) {
    if (iterations_ >= opt_.max_iterations) return SolveStatus::kIterationLimit;
    if (deadline_hit()) return SolveStatus::kTimeLimit;
    ++iterations_;

    bool bland = stall > 2 * (m + n_total_);

    // BTRAN: y = c_B^T B⁻¹ — rows with zero basic cost contribute nothing.
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      const double cb = cost[static_cast<std::size_t>(basis_[r])];
      if (cb == 0) continue;
      const double* row = binv_.data() + r * m;
      for (std::size_t i = 0; i < m; ++i) y[i] += cb * row[i];
    }

    // Price every nonbasic column: O(nnz) total. An at-lower column may
    // enter increasing when its reduced cost is negative; an at-upper
    // column may enter decreasing when it is positive. Dantzig picks the
    // largest violation (first index on exact ties, like the dense
    // solver's strict `<`); Bland picks the first eligible index.
    int enter = -1;
    int dir = 0;
    double best_viol = kEps;
    for (std::size_t j = 0; j < n_total_; ++j) {
      if (!allow[j] || state_[j] == VarState::kBasic) continue;
      double d = cost[j];
      for (std::size_t k = cols_.begin(j); k < cols_.end(j); ++k)
        d -= y[cols_.row[k]] * cols_.val[k];
      double viol;
      int cand_dir;
      if (state_[j] == VarState::kAtLower && d < -kEps) {
        viol = -d;
        cand_dir = 1;
      } else if (state_[j] == VarState::kAtUpper && d > kEps) {
        viol = d;
        cand_dir = -1;
      } else {
        continue;
      }
      if (bland) {
        enter = static_cast<int>(j);
        dir = cand_dir;
        break;
      }
      if (viol > best_viol) {
        enter = static_cast<int>(j);
        dir = cand_dir;
        best_viol = viol;
      }
    }
    if (enter < 0) return SolveStatus::kOptimal;
    const auto ej = static_cast<std::size_t>(enter);

    ftran(ej, w);

    // Ratio test over basic variables: moving the entering variable by
    // t ≥ 0 in direction `dir` changes x_B by delta·t with
    // delta_i = −dir·w_i. A shrinking basic limits t at its lower bound
    // (0 after the shift), a growing one at its finite upper bound.
    // Two passes, mirroring the dense solver: exact minimum first, then
    // smallest basic index among ties (zero tie window in Bland mode).
    int leave = -1;
    double best_ratio = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const double delta = -dir * w[i];
      double ratio;
      if (delta < -kPivotEps) {
        ratio = xb_[i] / -delta;
      } else if (delta > kPivotEps &&
                 ub_[static_cast<std::size_t>(basis_[i])] < kInf) {
        ratio = (ub_[static_cast<std::size_t>(basis_[i])] - xb_[i]) / delta;
      } else {
        continue;
      }
      if (leave < 0 || ratio < best_ratio) {
        leave = static_cast<int>(i);
        best_ratio = ratio;
      }
    }
    const double tie_tol = bland ? 0.0 : kEps;
    for (std::size_t i = 0; i < m; ++i) {
      const double delta = -dir * w[i];
      double ratio;
      if (delta < -kPivotEps) {
        ratio = xb_[i] / -delta;
      } else if (delta > kPivotEps &&
                 ub_[static_cast<std::size_t>(basis_[i])] < kInf) {
        ratio = (ub_[static_cast<std::size_t>(basis_[i])] - xb_[i]) / delta;
      } else {
        continue;
      }
      if (ratio <= best_ratio + tie_tol &&
          basis_[i] < basis_[static_cast<std::size_t>(leave)])
        leave = static_cast<int>(i);
    }

    // The entering variable's own opposite bound competes with every row:
    // if it binds first (ties prefer the flip — it is cheaper and keeps
    // the basis intact), the variable flips bound and no pivot happens.
    if (ub_[ej] < kInf && (leave < 0 || ub_[ej] <= best_ratio)) {
      const double t = ub_[ej];
      for (std::size_t i = 0; i < m; ++i) xb_[i] += -dir * w[i] * t;
      state_[ej] =
          dir > 0 ? VarState::kAtUpper : VarState::kAtLower;
      stall = t < kEps ? stall + 1 : 0;
      // Not a pivot: the basis and its inverse are untouched.
      continue;
    }
    if (leave < 0) return SolveStatus::kUnbounded;
    stall = best_ratio < kEps ? stall + 1 : 0;

    // Pivot: entering goes basic on row `leave`, the leaving variable
    // parks at whichever bound the ratio test hit.
    const auto li = static_cast<std::size_t>(leave);
    const double t = best_ratio;
    const auto lv = static_cast<std::size_t>(basis_[li]);
    const bool leave_to_upper = -dir * w[li] > 0;
    for (std::size_t i = 0; i < m; ++i) xb_[i] += -dir * w[i] * t;
    xb_[li] = dir > 0 ? t : ub_[ej] - t;
    state_[lv] = leave_to_upper ? VarState::kAtUpper : VarState::kAtLower;
    basis_[li] = enter;
    state_[ej] = VarState::kBasic;
    update_binv(w, li);
  }
}

// Post phase 1: replace every basic artificial with the first structural
// or slack column that has a nonzero coefficient in its row; a row where
// none exists is redundant and keeps its zero-valued artificial (which
// the phase-2 mask forbids from re-entering). Mirrors the dense solver.
void RevisedSolver::drive_artificials_out() {
  const std::size_t m = m_;
  std::vector<double>& w = scratch_w_;
  for (std::size_t r = 0; r < m; ++r) {
    if (static_cast<std::size_t>(basis_[r]) < first_artificial_) continue;
    const double* brow = binv_.data() + r * m;
    for (std::size_t j = 0; j < first_artificial_; ++j) {
      if (state_[j] == VarState::kBasic) continue;
      double a = 0;
      for (std::size_t k = cols_.begin(j); k < cols_.end(j); ++k)
        a += brow[cols_.row[k]] * cols_.val[k];
      if (std::abs(a) <= kPivotEps) continue;
      ftran(j, w);
      // The artificial sits at ~0, so the entering step is ~0 too: the
      // basis swap is (numerically) a no-op on the solution itself.
      const double step = xb_[r] / w[r];
      const double v0 = state_[j] == VarState::kAtUpper ? ub_[j] : 0.0;
      for (std::size_t i = 0; i < m; ++i) xb_[i] -= step * w[i];
      xb_[r] = v0 + step;
      state_[static_cast<std::size_t>(basis_[r])] = VarState::kAtLower;
      basis_[r] = static_cast<int>(j);
      state_[j] = VarState::kBasic;
      update_binv(w, r);
      break;
    }
  }
}

Solution RevisedSolver::run() {
  Solution sol;
  const auto& vars = model_.vars();
  const auto& cons = model_.constraints();
  const std::size_t n = vars.size();

  // Shift x' = x − lower so every variable lives in [0, ub'].
  std::vector<double> shift(n), ub(n);
  std::size_t ub_rows = 0;
  for (std::size_t j = 0; j < n; ++j) {
    shift[j] = vars[j].lower;
    ub[j] = vars[j].upper - vars[j].lower;
    if (ub[j] < kInf) ++ub_rows;
  }

  // Size guards use the DENSE-equivalent dimensions (upper bounds as
  // rows, slack/artificial columns counted), so the limit does not depend
  // on sparsity — see exceeds_cell_budget in simplex.h.
  const std::size_t m_dense = cons.size() + ub_rows;
  if (exceeds_cell_budget(m_dense, n, opt_.max_tableau_cells)) {
    sol.status = SolveStatus::kTimeLimit;  // instance too big: solver gives up
    return sol;
  }

  // Build constraint rows sparsely: aggregate duplicate terms through a
  // dense scratch (deterministic ascending-var order), shift the rhs,
  // then normalize rhs ≥ 0 by negating rows.
  struct Row {
    std::vector<Term> a;  // ascending var, aggregated
    Sense sense;
    double rhs;
  };
  std::vector<Row> raw;
  raw.reserve(cons.size());
  std::vector<double> acc(n, 0.0);
  std::vector<VarId> touched;
  for (const auto& c : cons) {
    touched.clear();
    for (const auto& term : c.terms) {
      FARM_CHECK(term.var >= 0 && static_cast<std::size_t>(term.var) < n);
      if (acc[static_cast<std::size_t>(term.var)] == 0 && term.coeff != 0)
        touched.push_back(term.var);
      acc[static_cast<std::size_t>(term.var)] += term.coeff;
    }
    std::sort(touched.begin(), touched.end());
    Row r{{}, c.sense, c.rhs};
    r.a.reserve(touched.size());
    for (VarId v : touched) {
      const double coeff = acc[static_cast<std::size_t>(v)];
      acc[static_cast<std::size_t>(v)] = 0;
      if (coeff == 0) continue;  // exact cancellation
      r.a.push_back({v, coeff});
      r.rhs -= coeff * shift[static_cast<std::size_t>(v)];
    }
    if (r.rhs < 0) {
      for (auto& term : r.a) term.coeff = -term.coeff;
      r.rhs = -r.rhs;
      r.sense = r.sense == Sense::kLe   ? Sense::kGe
                : r.sense == Sense::kGe ? Sense::kLe
                                        : Sense::kEq;
    }
    raw.push_back(std::move(r));
  }

  std::size_t n_slack = 0, n_art = 0;
  for (const auto& r : raw) {
    if (r.sense != Sense::kEq) ++n_slack;
    if (r.sense != Sense::kLe) ++n_art;
  }
  m_ = raw.size();
  n_total_ = n + n_slack + n_art;
  first_artificial_ = n + n_slack;

  // Second dense-equivalent guard: the full tableau width (every upper
  // bound contributes a row and that row a slack column).
  if (exceeds_cell_budget(m_dense, n_total_ + ub_rows,
                          opt_.max_tableau_cells)) {
    sol.status = SolveStatus::kTimeLimit;  // instance too big: solver gives up
    return sol;
  }

  // Sparse columns: structural from the rows (transposed via per-column
  // counts), then ±1 slack/surplus singletons, then +1 artificials.
  std::vector<std::uint32_t> count(n_total_ + 1, 0);
  for (const auto& r : raw)
    for (const auto& term : r.a)
      ++count[static_cast<std::size_t>(term.var) + 1];
  std::size_t struct_nnz = 0;
  for (std::size_t j = 0; j < n; ++j) struct_nnz += count[j + 1];
  const std::size_t nnz = struct_nnz + n_slack + n_art;
  cols_.start.assign(n_total_ + 1, 0);
  for (std::size_t j = 0; j < n_total_; ++j)
    cols_.start[j + 1] = cols_.start[j] + count[j + 1];
  cols_.row.resize(nnz);
  cols_.val.resize(nnz);
  {
    std::vector<std::uint32_t> fill(cols_.start.begin(),
                                    cols_.start.end() - 1);
    for (std::size_t i = 0; i < m_; ++i)
      for (const auto& term : raw[i].a) {
        const auto j = static_cast<std::size_t>(term.var);
        cols_.row[fill[j]] = static_cast<std::uint32_t>(i);
        cols_.val[fill[j]] = term.coeff;
        ++fill[j];
      }
  }

  ub_.assign(n_total_, kInf);
  for (std::size_t j = 0; j < n; ++j) ub_[j] = ub[j];
  basis_.assign(m_, -1);
  state_.assign(n_total_, VarState::kAtLower);
  xb_.assign(m_, 0.0);
  binv_.assign(m_ * m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) binv_[i * m_ + i] = 1.0;

  std::size_t slack_next = n, art_next = first_artificial_;
  std::size_t fill_slack = cols_.start[n];
  for (std::size_t i = 0; i < m_; ++i) {
    xb_[i] = raw[i].rhs;
    switch (raw[i].sense) {
      case Sense::kLe:
        cols_.row[fill_slack] = static_cast<std::uint32_t>(i);
        cols_.val[fill_slack] = 1.0;
        cols_.start[slack_next + 1] = static_cast<std::uint32_t>(++fill_slack);
        basis_[i] = static_cast<int>(slack_next);
        state_[slack_next++] = VarState::kBasic;
        break;
      case Sense::kGe:
        cols_.row[fill_slack] = static_cast<std::uint32_t>(i);
        cols_.val[fill_slack] = -1.0;
        cols_.start[slack_next + 1] = static_cast<std::uint32_t>(++fill_slack);
        ++slack_next;
        break;
      case Sense::kEq:
        break;
    }
  }
  // Artificial singletons (ge and eq rows), after every slack column.
  std::size_t fill_art = fill_slack;
  for (std::size_t i = 0; i < m_; ++i) {
    if (raw[i].sense == Sense::kLe) continue;
    cols_.row[fill_art] = static_cast<std::uint32_t>(i);
    cols_.val[fill_art] = 1.0;
    cols_.start[art_next + 1] = static_cast<std::uint32_t>(++fill_art);
    basis_[i] = static_cast<int>(art_next);
    state_[art_next++] = VarState::kBasic;
  }
  FARM_CHECK(fill_art == nnz);
  scratch_w_.assign(m_, 0.0);

  std::vector<bool> allow(n_total_, true);

  // --- Phase 1: minimize sum of artificials -----------------------------
  if (n_art > 0) {
    std::vector<double> cost1(n_total_, 0.0);
    for (std::size_t j = first_artificial_; j < n_total_; ++j) cost1[j] = 1.0;
    SolveStatus st = iterate(cost1, allow);
    sol.simplex_iterations = iterations_;
    if (st == SolveStatus::kTimeLimit || st == SolveStatus::kIterationLimit) {
      sol.status = st;
      return sol;
    }
    double w1 = 0;
    for (std::size_t i = 0; i < m_; ++i)
      if (static_cast<std::size_t>(basis_[i]) >= first_artificial_)
        w1 += xb_[i];
    if (w1 > 1e-6) {
      sol.status = SolveStatus::kInfeasible;
      return sol;
    }
    drive_artificials_out();
    for (std::size_t j = first_artificial_; j < n_total_; ++j)
      allow[j] = false;
  }

  // --- Phase 2: original objective (as minimization) --------------------
  std::vector<double> cost2(n_total_, 0.0);
  const double sign = model_.maximize() ? -1.0 : 1.0;
  for (std::size_t j = 0; j < n; ++j) cost2[j] = sign * vars[j].objective;
  SolveStatus st = iterate(cost2, allow);
  sol.simplex_iterations = iterations_;
  if (st != SolveStatus::kOptimal) {
    sol.status = st;
    return sol;
  }

  // Extract: basics from x_B, nonbasic-at-upper at their shifted bound.
  sol.values.assign(n, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const auto b = static_cast<std::size_t>(basis_[i]);
    if (b < n) sol.values[b] = xb_[i];
  }
  for (std::size_t j = 0; j < n; ++j)
    if (state_[j] == VarState::kAtUpper) sol.values[j] = ub_[j];
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

Solution solve_lp_dense_inverse(const Model& model,
                                const LpOptions& options) {
  RevisedSolver solver(model, options);
  return solver.run();
}

}  // namespace farm::lp

// Revised simplex on a sparse column store with bounded variables — the
// LP engine behind solve_lp (simplex.h; data structures in DESIGN.md
// §14.2).
//
// A dense tableau carries every coefficient of every column through every
// pivot and models upper bounds as explicit rows — for the per-switch
// redistribution LPs that doubles the row count and makes a pivot O(m·n)
// dense work. This solver keeps the constraint matrix as immutable sparse
// columns (plus a row-wise copy for pricing), handles box bounds
// implicitly via a nonbasic-at-lower/at-upper status per variable with
// bound flips, and keeps an explicit dense basis inverse that each pivot
// updates in place (Gauss-Jordan on the entering column). Next to each row
// of the inverse it keeps the exact list of that row's nonzero columns.
// The placement LPs' inverses are almost all zeros, so BTRAN, pricing,
// the ratio test and the inverse update visit only entries that can be
// nonzero: a pivot costs O(n + m·nnz(A_j)) plus the nonzeros it touches,
// not O(m²).
//
// Skipping zeros changes no bit of the result. Every visited entry gets
// the same arithmetic in the same order as a full dense sweep; only terms
// with an exact zero (±0) factor are skipped. Such a term leaves a
// nonzero sum unchanged and can flip at most the sign of a zero one. y
// and w accumulate from +0.0, which IEEE addition never turns into −0.0,
// so they come out identical; a reduced cost or an inverse entry can
// differ only in the sign of a zero, which no comparison sees and no
// later nonzero term keeps. The pivots, the iteration count and every
// solution bit equal the full sweep's: lp_test's
// IndexedKernelMatchesDenseInverseBitForBit checks them against it
// (tests/dense_inverse.cpp).
//
// Determinism and anti-cycling: Dantzig pricing with first-index
// tie-break, Bland's rule engaged after a degenerate stall longer than
// 2·(m + n_total) iterations, and an exact-minimum two-pass ratio test
// whose tie window collapses to zero in Bland mode (the anti-cycling proof
// needs exact ties). The dense two-phase tableau that lp_test uses as this
// solver's oracle (tests/dense_tableau.cpp) follows the same rules.
//
// optimal_value runs the same solver after folding every one-term row into
// its variable's bounds. The folded and unfolded LPs have the same optimum
// but, being degenerate, not always the same optimal vertex, so the fold
// never runs inside solve_lp: lp_test's OptimalValueMatchesSolveLp holds
// the value against solve_lp's objective.
#include "lp/simplex.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/prof.h"

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

// The same matrix row by row, for pricing over the nonzeros of y. Column
// indices within a row are strictly increasing.
struct SparseRows {
  std::vector<std::uint32_t> start;  // size m + 1
  std::vector<std::uint32_t> col;
  std::vector<double> val;
};

enum class VarState : std::uint8_t { kAtLower, kAtUpper, kBasic };

// The indices of v's nonzeros, ascending, without a branch per entry.
void collect_nonzeros(const std::vector<double>& v,
                      std::vector<std::uint32_t>& out) {
  out.resize(v.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[n] = static_cast<std::uint32_t>(i);
    n += v[i] != 0;
  }
  out.resize(n);
}

class RevisedSolver {
 public:
  RevisedSolver(const Model& model, const LpOptions& opt)
      : model_(model), opt_(opt), start_(std::chrono::steady_clock::now()) {}

  // Solves the model. With fold_singletons, every row left with one
  // nonzero term after aggregation becomes a bound on its variable instead
  // of a row (optimal_value).
  Solution run(bool fold_singletons);

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

  // w = B⁻¹ · A_j (FTRAN against the dense inverse); w_nz_ lists the rows
  // where w is nonzero, ascending.
  void ftran(std::size_t j, std::vector<double>& w) {
    const std::size_t m = m_;
    std::fill(w.begin(), w.end(), 0.0);
    for (std::size_t k = cols_.begin(j); k < cols_.end(j); ++k) {
      const std::size_t r = cols_.row[k];
      const double v = cols_.val[k];
      const double* col = binv_.data() + r * m;  // column r of B⁻¹
      for (std::size_t i = 0; i < m; ++i) w[i] += col[i] * v;
    }
    collect_nonzeros(w, w_nz_);
  }

  // Gauss-Jordan update of the inverse after `enter`'s column w pivots on
  // row `leave`: the pivot row is divided by w[leave], and each row i with
  // |w_i| ≥ kEps loses w_i times it. Only the pivot row's nonzero columns
  // can change, and only the rows in w_nz_ qualify; each row's list gains
  // the columns that fill in and drops the ones that cancel to zero.
  void update_binv(const std::vector<double>& w, std::size_t leave) {
    const std::size_t m = m_;
    double* const b = binv_.data();
    std::uint32_t* const pnz = binv_nz_.get() + leave * m;
    const double piv = w[leave];
    std::uint32_t plen = 0;
    for (std::uint32_t k = 0; k < binv_len_[leave]; ++k) {
      const std::size_t c = pnz[k];
      b[c * m + leave] /= piv;
      if (b[c * m + leave] != 0) pnz[plen++] = pnz[k];  // unless underflow
    }
    binv_len_[leave] = plen;
    for (const std::uint32_t i : w_nz_) {
      const double f = w[i];
      if (i == leave || std::abs(f) < kEps) continue;
      std::uint32_t* const nz = binv_nz_.get() + i * m;
      std::uint32_t len = binv_len_[i];
      for (std::uint32_t k = 0; k < plen; ++k) {
        const std::size_t c = pnz[k];
        const double old = b[c * m + i];
        b[c * m + i] -= f * b[c * m + leave];
        if (old == 0 && b[c * m + i] != 0) nz[len++] = pnz[k];  // fill-in
      }
      std::uint32_t keep = 0;  // drop the columns that cancelled to zero
      for (std::uint32_t k = 0; k < len; ++k)
        if (b[nz[k] * m + i] != 0) nz[keep++] = nz[k];
      binv_len_[i] = keep;
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
  SparseRows rows_;
  std::vector<double> ub_;      // shifted upper bound per column (kInf = none)
  // Dense m×m basis inverse, column-major: entry (i, c) at c·m + i, so
  // FTRAN sweeps contiguous columns. Everything else visits it through
  // the row lists below.
  std::vector<double> binv_;
  // Row i's nonzero columns, exactly and in no particular order:
  // binv_nz_[i·m, i·m + binv_len_[i]).
  // Allocated uninitialized: a row touches only the slots it fills, so a
  // large sparse inverse commits little more than one page per row.
  std::unique_ptr<std::uint32_t[]> binv_nz_;
  std::vector<std::uint32_t> binv_len_;
  std::vector<std::uint32_t> w_nz_;  // ftran's nonzero rows of w, ascending
  std::vector<int> basis_;      // basic column per row
  std::vector<VarState> state_;
  std::vector<double> xb_;      // values of basic variables, by row
  std::vector<double> scratch_w_;
};

SolveStatus RevisedSolver::iterate(const std::vector<double>& cost,
                                   const std::vector<bool>& allow) {
  const std::size_t m = m_;
  std::vector<double> y(m), w(m), d(n_total_);
  std::vector<std::uint32_t> y_nz;
  // Pricing sign per column: −1 for an allowed at-lower column (it may
  // enter when d_j < −kEps), +1 for an allowed at-upper one (d_j > kEps),
  // 0 for a basic or masked one. sign·d is then exactly the violation
  // (±1 multiplies exactly), and 0·d never exceeds kEps.
  std::vector<double> sign(n_total_);
  auto set_sign = [&](std::size_t j) {
    sign[j] = !allow[j] || state_[j] == VarState::kBasic ? 0.0
              : state_[j] == VarState::kAtLower          ? -1.0
                                                         : 1.0;
  };
  for (std::size_t j = 0; j < n_total_; ++j) set_sign(j);
  // The basic cost of each row, c_B.
  std::vector<double> cb(m);
  for (std::size_t r = 0; r < m; ++r)
    cb[r] = cost[static_cast<std::size_t>(basis_[r])];
  std::uint64_t stall = 0;
  bool was_bland = false;
  while (true) {
    if (iterations_ >= opt_.max_iterations) return SolveStatus::kIterationLimit;
    if (deadline_hit()) return SolveStatus::kTimeLimit;
    ++iterations_;

    bool bland = stall > 2 * (m + n_total_);
    if (bland && !was_bland) FARM_PROF_COUNT("lp.simplex.bland", 1);
    was_bland = bland;

    // BTRAN: y = c_B^T B⁻¹ — rows with zero basic cost contribute nothing,
    // and each remaining row only through its nonzeros. Rows go in
    // ascending order, so every y_i sums its terms in the dense order.
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      if (cb[r] == 0) continue;
      const std::uint32_t* nz = binv_nz_.get() + r * m;
      for (std::uint32_t k = 0; k < binv_len_[r]; ++k)
        y[nz[k]] += cb[r] * binv_[nz[k] * m + r];
    }
    collect_nonzeros(y, y_nz);

    // Reduced costs d = c − yᵀA, row-wise over the nonzeros of y: rows go
    // in ascending order, so each d_j subtracts its terms in the same
    // order as a walk down column j.
    std::copy(cost.begin(), cost.end(), d.begin());
    for (const std::uint32_t i : y_nz) {
      const double yi = y[i];
      for (std::uint32_t k = rows_.start[i]; k < rows_.start[i + 1]; ++k)
        d[rows_.col[k]] -= yi * rows_.val[k];
    }

    // Price every nonbasic column. An at-lower column may enter increasing
    // when its reduced cost is negative; an at-upper column may enter
    // decreasing when it is positive. Dantzig picks the largest violation
    // (first index on exact ties, like the dense solver's strict `<`);
    // Bland picks the first eligible index.
    int enter = -1;
    int dir = 0;
    double best_viol = kEps;
    for (std::size_t j = 0; j < n_total_; ++j) {
      const double viol = sign[j] * d[j];
      if (viol > best_viol) {
        enter = static_cast<int>(j);
        dir = sign[j] < 0 ? 1 : -1;
        best_viol = viol;
        if (bland) break;
      }
    }
    if (enter < 0) return SolveStatus::kOptimal;
    const auto ej = static_cast<std::size_t>(enter);

    ftran(ej, w);

    // Ratio test over basic variables: moving the entering variable by
    // t ≥ 0 in direction `dir` changes x_B by delta·t with
    // delta_i = −dir·w_i. A shrinking basic limits t at its lower bound
    // (0 after the shift), a growing one at its finite upper bound. Rows
    // where w is zero cannot limit t, so both passes walk w_nz_.
    // Two passes, mirroring the dense solver: exact minimum first, then
    // smallest basic index among ties (zero tie window in Bland mode).
    int leave = -1;
    double best_ratio = 0;
    for (const std::uint32_t i : w_nz_) {
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
    for (const std::uint32_t i : w_nz_) {
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
      set_sign(ej);
      stall = t < kEps ? stall + 1 : 0;
      // Not counted as a pivot: the basis and its inverse are untouched,
      // so `lp.simplex.pivots` stays comparable with the dense tableau's
      // basis-change count.
      continue;
    }
    if (leave < 0) return SolveStatus::kUnbounded;
    stall = best_ratio < kEps ? stall + 1 : 0;

    // Pivot: entering goes basic on row `leave`, the leaving variable
    // parks at whichever bound the ratio test hit.
    FARM_PROF_COUNT("lp.simplex.pivots", 1);
    const auto li = static_cast<std::size_t>(leave);
    const double t = best_ratio;
    const auto lv = static_cast<std::size_t>(basis_[li]);
    const bool leave_to_upper = -dir * w[li] > 0;
    for (std::size_t i = 0; i < m; ++i) xb_[i] += -dir * w[i] * t;
    xb_[li] = dir > 0 ? t : ub_[ej] - t;
    state_[lv] = leave_to_upper ? VarState::kAtUpper : VarState::kAtLower;
    basis_[li] = enter;
    cb[li] = cost[ej];
    state_[ej] = VarState::kBasic;
    set_sign(lv);
    set_sign(ej);
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
    for (std::size_t j = 0; j < first_artificial_; ++j) {
      if (state_[j] == VarState::kBasic) continue;
      double a = 0;
      for (std::size_t k = cols_.begin(j); k < cols_.end(j); ++k)
        a += binv_[cols_.row[k] * m + r] * cols_.val[k];
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

Solution RevisedSolver::run(bool fold_singletons) {
  Solution sol;
  const auto& vars = model_.vars();
  const auto& cons = model_.constraints();
  const std::size_t n = vars.size();

  // Each variable's bounds: the model's, tightened by any folded row.
  std::vector<double> lower(n), upper(n);
  std::size_t ub_rows = 0;
  for (std::size_t j = 0; j < n; ++j) {
    lower[j] = vars[j].lower;
    upper[j] = vars[j].upper;
    if (vars[j].upper - vars[j].lower < kInf) ++ub_rows;
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
  // dense scratch (deterministic ascending-var order), fold one-term rows
  // when asked, shift the rhs, then normalize rhs ≥ 0 by negating rows.
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
    }
    if (fold_singletons && r.a.size() == 1) {
      // a·x ≥ b is x ≥ b/a for a > 0 and x ≤ b/a for a < 0; ≤ mirrors it
      // and an equality bounds both sides.
      const auto j = static_cast<std::size_t>(r.a[0].var);
      const double a = r.a[0].coeff;
      const double bound = r.rhs / a;
      if (r.sense == Sense::kEq || (r.sense == Sense::kGe) == (a > 0))
        lower[j] = std::max(lower[j], bound);
      if (r.sense == Sense::kEq || (r.sense == Sense::kLe) == (a > 0))
        upper[j] = std::min(upper[j], bound);
      continue;
    }
    raw.push_back(std::move(r));
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (lower[j] > upper[j]) {  // only a folded row can cross the bounds
      sol.status = SolveStatus::kInfeasible;
      return sol;
    }
  }

  // Shift x' = x − lower so every variable lives in [0, upper − lower].
  for (Row& r : raw) {
    for (const auto& term : r.a)
      r.rhs -= term.coeff * lower[static_cast<std::size_t>(term.var)];
    if (r.rhs < 0) {
      for (auto& term : r.a) term.coeff = -term.coeff;
      r.rhs = -r.rhs;
      r.sense = r.sense == Sense::kLe   ? Sense::kGe
                : r.sense == Sense::kGe ? Sense::kLe
                                        : Sense::kEq;
    }
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
  for (std::size_t j = 0; j < n; ++j) ub_[j] = upper[j] - lower[j];
  basis_.assign(m_, -1);
  state_.assign(n_total_, VarState::kAtLower);
  xb_.assign(m_, 0.0);
  binv_.assign(m_ * m_, 0.0);
  binv_nz_ = std::make_unique_for_overwrite<std::uint32_t[]>(m_ * m_);
  binv_len_.assign(m_, 1);
  for (std::size_t i = 0; i < m_; ++i) {
    binv_[i * m_ + i] = 1.0;
    binv_nz_[i * m_] = static_cast<std::uint32_t>(i);
  }

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

  // Row-wise copy for pricing: walking the columns in ascending order
  // leaves each row's column indices ascending.
  rows_.start.assign(m_ + 1, 0);
  for (std::size_t k = 0; k < nnz; ++k) ++rows_.start[cols_.row[k] + 1];
  for (std::size_t i = 0; i < m_; ++i) rows_.start[i + 1] += rows_.start[i];
  rows_.col.resize(nnz);
  rows_.val.resize(nnz);
  {
    std::vector<std::uint32_t> fill(rows_.start.begin(),
                                    rows_.start.end() - 1);
    for (std::size_t j = 0; j < n_total_; ++j)
      for (std::size_t k = cols_.begin(j); k < cols_.end(j); ++k) {
        const std::uint32_t i = cols_.row[k];
        rows_.col[fill[i]] = static_cast<std::uint32_t>(j);
        rows_.val[fill[i]] = cols_.val[k];
        ++fill[i];
      }
  }

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
    sol.values[j] += lower[j];
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

Solution solve_lp(const Model& model, const LpOptions& options) {
  FARM_PROF_SCOPE("simplex");
  RevisedSolver solver(model, options);
  return solver.run(/*fold_singletons=*/false);
}

std::optional<double> optimal_value(const Model& model) {
  FARM_PROF_SCOPE("simplex");
  RevisedSolver solver(model, LpOptions{});
  const Solution sol = solver.run(/*fold_singletons=*/true);
  if (sol.status != SolveStatus::kOptimal) return std::nullopt;
  return sol.objective;
}

}  // namespace farm::lp

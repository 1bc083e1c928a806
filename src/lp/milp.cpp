#include "lp/milp.h"

#include <chrono>
#include <cmath>
#include <optional>
#include <vector>

#include "telemetry/prof.h"

namespace farm::lp {

namespace {

constexpr double kIntTol = 1e-6;
// Relative optimality gap at which search stops.
constexpr double kMipGap = 1e-6;
constexpr std::uint64_t kMaxNodes = 5'000'000;

class BranchAndBound {
 public:
  BranchAndBound(const Model& model, const MilpOptions& opt)
      : work_(model), opt_(opt), start_(std::chrono::steady_clock::now()) {
    for (std::size_t j = 0; j < work_.base.vars().size(); ++j)
      if (work_.base.vars()[j].kind != VarKind::kContinuous)
        int_vars_.push_back(static_cast<VarId>(j));
  }

  Solution run();

 private:
  double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double remaining() const { return opt_.timeout_seconds - elapsed(); }

  Solution solve_node();
  // Fixes fractional integers of `relax` by rounding and re-solving the
  // continuous part; installs the result as incumbent if feasible & better.
  void try_rounding(const Solution& relax);
  void offer_incumbent(const Solution& candidate);
  std::optional<VarId> most_fractional(const Solution& s) const;
  void dive(int depth);

  // Mutable bounds live in a working copy of the model.
  struct MutableModel {
    explicit MutableModel(const Model& m) : base(m), lower(), upper() {
      for (const auto& v : m.vars()) {
        lower.push_back(v.lower);
        upper.push_back(v.upper);
      }
    }
    const Model& base;
    std::vector<double> lower, upper;

    // Materializes a Model with current bounds (cheap relative to solve).
    Model snapshot() const {
      Model m;
      m.set_maximize(base.maximize());
      for (std::size_t j = 0; j < base.vars().size(); ++j) {
        const auto& v = base.vars()[j];
        m.add_var(v.name, VarKind::kContinuous, lower[j], upper[j],
                  v.objective);
      }
      for (const auto& c : base.constraints())
        m.add_constraint(c.name, c.terms, c.sense, c.rhs);
      return m;
    }
  };

  MutableModel work_;
  MilpOptions opt_;
  std::chrono::steady_clock::time_point start_;
  std::vector<VarId> int_vars_;
  std::optional<Solution> incumbent_;
  std::uint64_t nodes_ = 0;
  bool stopped_ = false;
};

Solution BranchAndBound::solve_node() {
  LpOptions lp;
  lp.deadline_seconds = std::max(0.0, remaining());
  return solve_lp(work_.snapshot(), lp);
}

std::optional<VarId> BranchAndBound::most_fractional(const Solution& s) const {
  std::optional<VarId> best;
  double best_frac = kIntTol;
  for (VarId v : int_vars_) {
    double x = s.value(v);
    double frac = std::abs(x - std::round(x));
    if (frac > best_frac) {
      best_frac = frac;
      best = v;
    }
  }
  return best;
}

void BranchAndBound::offer_incumbent(const Solution& candidate) {
  bool better =
      !incumbent_ || (work_.base.maximize()
                          ? candidate.objective > incumbent_->objective
                          : candidate.objective < incumbent_->objective);
  if (better) incumbent_ = candidate;
}

void BranchAndBound::try_rounding(const Solution& relax) {
  // Fix every integer variable to its rounded relaxation value, clipped to
  // bounds, then solve the continuous remainder.
  std::vector<double> save_lo = work_.lower, save_hi = work_.upper;
  for (VarId v : int_vars_) {
    auto j = static_cast<std::size_t>(v);
    double r = std::round(relax.value(v));
    r = std::min(std::max(r, work_.lower[j]), work_.upper[j]);
    work_.lower[j] = work_.upper[j] = r;
  }
  Solution fixed = solve_node();
  if (fixed.status == SolveStatus::kOptimal) offer_incumbent(fixed);
  work_.lower = std::move(save_lo);
  work_.upper = std::move(save_hi);
}

void BranchAndBound::dive(int depth) {
  if (stopped_) return;
  if (remaining() <= 0 || nodes_ >= kMaxNodes) {
    stopped_ = true;
    return;
  }
  ++nodes_;
  FARM_PROF_COUNT("lp.milp.nodes", 1);

  Solution relax = solve_node();
  if (relax.status == SolveStatus::kInfeasible) return;
  if (relax.status != SolveStatus::kOptimal) {
    // Relaxation aborted (deadline / oversized tableau): nothing provable
    // below this node within budget.
    stopped_ = true;
    return;
  }

  // Bound pruning against the incumbent.
  if (incumbent_) {
    double cut = incumbent_->objective;
    double tol = kMipGap * std::max(1.0, std::abs(cut));
    if (work_.base.maximize() ? relax.objective <= cut + tol
                              : relax.objective >= cut - tol) {
      FARM_PROF_COUNT("lp.milp.pruned", 1);
      return;
    }
  }

  auto branch_var = most_fractional(relax);
  if (!branch_var) {
    offer_incumbent(relax);
    return;
  }
  if (depth == 0) try_rounding(relax);  // root heuristic for early incumbent

  auto j = static_cast<std::size_t>(*branch_var);
  double x = relax.value(*branch_var);
  double floor_x = std::floor(x + kIntTol);
  double save_lo = work_.lower[j], save_hi = work_.upper[j];

  // Explore the side nearer to the fractional value first.
  bool down_first = (x - floor_x) < 0.5;
  for (int side = 0; side < 2 && !stopped_; ++side) {
    bool down = (side == 0) == down_first;
    if (down) {
      work_.upper[j] = floor_x;
      if (work_.upper[j] >= save_lo - kIntTol) dive(depth + 1);
    } else {
      work_.lower[j] = floor_x + 1;
      if (work_.lower[j] <= save_hi + kIntTol) dive(depth + 1);
    }
    work_.lower[j] = save_lo;
    work_.upper[j] = save_hi;
  }
}

Solution BranchAndBound::run() {
  dive(0);

  Solution out;
  if (incumbent_) {
    out = *incumbent_;
    // Snap integer values exactly.
    for (VarId v : int_vars_) {
      auto j = static_cast<std::size_t>(v);
      out.values[j] = std::round(out.values[j]);
    }
    out.status = stopped_ ? SolveStatus::kTimeLimit : SolveStatus::kOptimal;
  } else {
    out.status =
        stopped_ ? SolveStatus::kTimeLimit : SolveStatus::kInfeasible;
  }
  out.nodes_explored = nodes_;
  out.solve_seconds = elapsed();
  return out;
}

}  // namespace

Solution solve_milp(const Model& model, const MilpOptions& options) {
  if (!model.has_integrality()) return solve_lp(model);
  FARM_PROF_SCOPE("milp");
  BranchAndBound bb(model, options);
  return bb.run();
}

}  // namespace farm::lp

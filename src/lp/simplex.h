// Primal simplex solver for the placement LPs: the continuous relaxation
// of placement models and the per-switch resource-redistribution LPs of
// Algorithm 1 (step 3).
//
// solve_lp runs a revised simplex over a sparse column store with bounded
// variables (simplex.cpp). Upper bounds are handled implicitly
// (nonbasic-at-upper status + bound flips), so a model with n box-bounded
// variables costs n fewer rows than a dense tableau. The explicit basis
// inverse carries an exact nonzero list per row, and each pivot visits
// only entries that can be nonzero — O(n + m·nnz(A_j)) plus the nonzeros
// it touches, not the full tableau or the full m² inverse — with results
// bit-identical to a full dense sweep. Oversized instances are refused
// through exceeds_cell_budget — an oversized instance aborts against the
// deadline exactly like a timed-out solver run.
#pragma once

#include <limits>
#include <optional>

#include "lp/model.h"

namespace farm::lp {

struct LpOptions {
  // Wall-clock budget; exceeded ⇒ status kTimeLimit.
  double deadline_seconds = kInf;
  std::uint64_t max_iterations = 10'000'000;
  // Refuse instances whose dense-equivalent tableau (one row per
  // constraint and per finite upper bound) would exceed this many cells;
  // the returned status is kTimeLimit (treated as "solver gave up"),
  // keeping large-scale MILP baseline behaviour honest instead of
  // thrashing. The limit does not depend on the model's sparsity.
  std::size_t max_tableau_cells = 64'000'000;
};

// The size guard behind LpOptions::max_tableau_cells: true when a
// working set of `rows` rows by `cols_excl_rhs` columns (plus the rhs
// column) exceeds `max_cells`. Computed overflow-safe — saturates instead
// of wrapping — so a pathological model cannot sneak past the guard.
inline bool exceeds_cell_budget(std::size_t rows, std::size_t cols_excl_rhs,
                                std::size_t max_cells) {
  if (rows == 0) return false;
  if (cols_excl_rhs == std::numeric_limits<std::size_t>::max()) return true;
  const std::size_t cols = cols_excl_rhs + 1;  // + rhs column
  // rows * cols > max_cells, without the multiply that could overflow.
  return cols > max_cells / rows;
}

// Integrality markers in the model are ignored (continuous relaxation).
Solution solve_lp(const Model& model, const LpOptions& options = {});

// The optimal objective of the continuous relaxation, or nullopt when the
// LP is not optimal (default options). It runs the same solver, but first
// folds every row with one nonzero term (after duplicate-term aggregation)
// into that variable's bounds, and answers "infeasible" without solving
// when two bounds cross. In the per-switch redistribution LPs those rows
// are the `res ≥ c` guards and constant poll rows, exactly the rows that
// need artificials, so the value costs far fewer rows and phase-1
// iterations than solve_lp. It returns no vertex on purpose: on a
// degenerate LP the folded start ends at another optimal vertex than
// solve_lp's, so it may stand in for solve_lp only where no allocation is
// read.
std::optional<double> optimal_value(const Model& model);

}  // namespace farm::lp

// Full MILP formulation of the placement problem (§IV-B/C/D).
//
// This is the "commodity solver" path the paper benchmarks Gurobi on
// (Fig. 7): exact on small instances, anytime-with-timeout on large ones.
// The nonlinear plc(s,n)·f(res) terms are linearized with the paper's
// observation that (C3) forces res = 0 whenever plc = 0 — plus a big-M
// relaxation for variant constraints whose polynomials are negative at 0.
// When branch-and-bound cannot produce any incumbent within the budget
// (huge instances), a first-fit primal start heuristic provides the
// fallback incumbent, mirroring commercial solvers' start heuristics.
#pragma once

#include "lp/milp.h"
#include "placement/model.h"

namespace farm::placement {

struct MilpPlacementOptions {
  double timeout_seconds = 60;
};

PlacementResult solve_milp_placement(const PlacementProblem& problem,
                                     const MilpPlacementOptions& options = {});

// The first-fit primal heuristic used as incumbent fallback; exposed for
// testing and for ablations.
PlacementResult first_fit_placement(const PlacementProblem& problem);

}  // namespace farm::placement

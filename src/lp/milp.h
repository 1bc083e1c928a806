// Branch-and-bound MILP solver over the two-phase simplex.
//
// This is the "commodity solver" of the evaluation (the role Gurobi plays
// in the paper, §VI-D): given the full placement MILP it finds the optimum
// on small instances and degrades to best-incumbent-at-timeout on large
// ones — exactly the behaviour Fig. 7 contrasts with FARM's heuristic.
#pragma once

#include "lp/model.h"
#include "lp/simplex.h"

namespace farm::lp {

struct MilpOptions {
  double timeout_seconds = 60;
};

Solution solve_milp(const Model& model, const MilpOptions& options = {});

}  // namespace farm::lp

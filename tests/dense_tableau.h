// The dense two-phase tableau simplex, kept as lp_test's oracle for the
// revised simplex behind solve_lp.
#pragma once

#include "lp/simplex.h"

namespace farm::lp {

Solution solve_lp_dense(const Model& model, const LpOptions& options = {});

}  // namespace farm::lp

// Revised simplex on a sparse column store with bounded variables.
//
// Internal entry point used by solve_lp when LpOptions::algorithm is
// kRevisedSparse; see simplex.h for the public interface and DESIGN.md
// §14.2 for the data structures.
#pragma once

#include "lp/simplex.h"

namespace farm::lp {

Solution solve_lp_revised(const Model& model, const LpOptions& options);

}  // namespace farm::lp

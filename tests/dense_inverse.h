// The revised simplex with a dense, fully swept basis inverse: lp_test's
// bit-for-bit reference for solve_lp, which visits only the inverse's
// nonzeros.
#pragma once

#include "lp/simplex.h"

namespace farm::lp {

Solution solve_lp_dense_inverse(const Model& model,
                                const LpOptions& options = {});

}  // namespace farm::lp

// FARM's seed-placement heuristic (Algorithm 1, §IV-D).
//
//  1. Sort tasks by decreasing minimum utility.
//  2. Greedily place each task's seeds at their best candidate switch
//     (most added utility at minimal allocation; existing placements are
//     kept where possible — no unnecessary migration).
//  3. Redistribute resources exactly with one small LP per switch (the
//     problem decomposes: capacities couple only co-located seeds).
//  4. Compute migration benefits (pairs of per-switch LPs) and
//  5. apply migrations in decreasing benefit order.
//
// Step 4 first screens the moves of seeds running at their source with
// value-only LPs (lp::optimal_value) and prices exactly only the moves
// that could pay; every move the exact benefits rank is still priced by
// the exact LPs, so the placement is the one pricing every move gives.
//
// Migration residue (the transient doubling of §IV-B a) is charged at the
// source switch for every seed that moves relative to the problem's
// current placement.
//
// Combine: steps 3 and 4 and the per-variant minimal-allocation precompute
// are embarrassingly parallel LP batches. They fan out across a worker
// pool (util/pool.h) sized by FARM_THREADS or a util::ScopedThreads
// override, and reduce in index order, so the output placement is
// bit-identical to the sequential run at any thread count. The greedy pass
// and migration application stay sequential — they thread a single evolving
// state.
#pragma once

#include "placement/model.h"

namespace farm::placement {

class SolveMemo;

struct HeuristicOptions {
  bool enable_migration_pass = true;
  // Optional LP memo (memo.h), kept by the caller across solves: every
  // minimal-allocation and per-switch redistribution LP is looked up by
  // exact content first. Cached values are pure functions of their keys,
  // so the placement is bit-identical with or without a memo; only
  // `lp_solves` (cache misses) differs. solve_heuristic runs the memo's
  // whole lifecycle: prepare and finish around the solve, then
  // validate_placement, and on a rejection (a corrupted entry) it logs a
  // warning, clears the memo and solves once more.
  SolveMemo* memo = nullptr;
};

PlacementResult solve_heuristic(const PlacementProblem& problem,
                                const HeuristicOptions& options = {});

}  // namespace farm::placement

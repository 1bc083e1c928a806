// Per-switch LP helpers shared by the heuristic and by migration-benefit
// evaluation. The resource-redistribution problem decomposes by switch
// (capacities only couple seeds on the same switch), so each LP stays tiny
// even at 10k-seed scale — the property that makes Algorithm 1 fast.
#pragma once

#include <optional>
#include <vector>

#include "lp/simplex.h"
#include "placement/model.h"

namespace farm::placement {

// A seed pinned to a switch with a chosen variant, awaiting an allocation.
struct PinnedSeed {
  const SeedModel* seed;
  int variant;
};

struct SwitchLpResult {
  double utility = 0;
  std::vector<ResourcesValue> allocs;  // parallel to input seeds
  std::vector<double> utilities;
};

// The redistribution LP of the pinned seeds on `sw` under (C2)-(C4),
// with `reserved` capacity already consumed (migration residue): the
// 4 resource variables of seed i at 4i..4i+3, then one utility variable
// per seed (its objective term), then one pollres per polling subject.
lp::Model redistribution_model(const SwitchModel& sw,
                               const std::vector<PinnedSeed>& seeds,
                               const ResourcesValue& reserved);

// Maximizes total utility of the pinned seeds on `sw`: solves
// redistribution_model. Returns nullopt if the LP is infeasible.
std::optional<SwitchLpResult> redistribute_on_switch(
    const SwitchModel& sw, const std::vector<PinnedSeed>& seeds,
    const ResourcesValue& reserved, std::uint64_t* lp_solves = nullptr);

// The optimal total utility of redistribution_model without its
// allocation, through lp::optimal_value. On a degenerate LP its vertex may
// differ from redistribute_on_switch's, so it serves only callers that
// read no allocation: step 4's screen (heuristic.cpp). nullopt unless the
// LP is optimal.
std::optional<double> redistribution_value(
    const SwitchModel& sw, const std::vector<PinnedSeed>& seeds,
    const ResourcesValue& reserved, std::uint64_t* lp_solves = nullptr);

// Component-wise minimal feasible allocation of a variant within `cap`
// (an LP minimizing total allocation subject to the variant constraints).
// nullopt = infeasible within the capacity box.
std::optional<ResourcesValue> minimal_allocation(const UtilityVariant& variant,
                                                 const ResourcesValue& cap);

}  // namespace farm::placement

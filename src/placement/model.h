// Seed placement optimization model (§IV).
//
// The problem couples: per-seed candidate switches N^s (from place
// directives), per-seed resource constraints C^s and utilities u^s (from
// util analysis; multiple variants = the paper's seed copies of which at
// most one is placed), polling demand (1/ival linear in the allocation,
// shared per polling subject — the aggregation benefit), migration overhead
// (resources doubled at the source while state transfers), and switch
// capacities. Objective: total monitoring utility (MU).
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "almanac/utility.h"
#include "net/topology.h"

namespace farm::placement {

using almanac::Poly;
using almanac::ResourcesValue;
using almanac::UtilityVariant;

// Dimension d (almanac::kVCpu, kRam, kTcam, kPcie) of a resource vector.
inline double& res_dim(ResourcesValue& r, std::size_t d) {
  switch (d) {
    case almanac::kVCpu:
      return r.vCPU;
    case almanac::kRam:
      return r.RAM;
    case almanac::kTcam:
      return r.TCAM;
    default:
      return r.PCIe;
  }
}
inline double res_dim(const ResourcesValue& r, std::size_t d) {
  return res_dim(const_cast<ResourcesValue&>(r), d);
}

struct PollModel {
  // φ_enc subject key; polls with equal keys on the same switch aggregate.
  std::string subject;
  // 1/ival as a linear polynomial of the seed's allocation.
  Poly inv_ival;
};

struct SeedModel {
  std::string id;    // unique, e.g. "task/machine#3"
  std::string task;  // C1 groups seeds by task
  std::vector<net::NodeId> candidates;  // N^s (non-empty)
  std::vector<UtilityVariant> variants;  // at most one placed
  std::vector<PollModel> polls;
};

struct SwitchModel {
  net::NodeId node = net::kInvalidNode;
  ResourcesValue capacity;  // ares(n, ·); PCIe is the polling capacity
  double alpha_poll = 1.0;  // α_poll(n)
};

struct PlacementProblem {
  std::vector<SeedModel> seeds;
  std::vector<SwitchModel> switches;
  // Current placement plc' and allocation res' (empty on first run).
  std::unordered_map<std::string, net::NodeId> current_placement;
  std::unordered_map<std::string, ResourcesValue> current_alloc;

  const SwitchModel* switch_model(net::NodeId n) const {
    for (const auto& s : switches)
      if (s.node == n) return &s;
    return nullptr;
  }
};

struct PlacementEntry {
  std::string seed;
  net::NodeId node = net::kInvalidNode;
  int variant = 0;
  ResourcesValue alloc;
  double utility = 0;
};

struct PlacementResult {
  std::vector<PlacementEntry> placements;  // unplaced seeds absent
  double total_utility = 0;
  double solve_seconds = 0;
  std::uint64_t lp_solves = 0;     // heuristic diagnostics
  std::uint64_t milp_nodes = 0;    // MILP diagnostics
  bool timed_out = false;

  const PlacementEntry* entry(const std::string& seed) const {
    for (const auto& e : placements)
      if (e.seed == seed) return &e;
    return nullptr;
  }
};

// Checks (C1)-(C4) and recomputes MU; returns error strings (empty = valid).
// `tolerance` absorbs LP round-off.
std::vector<std::string> validate_placement(const PlacementProblem& problem,
                                            const PlacementResult& result,
                                            double tolerance = 1e-6);

// Recomputed MU from entries (trusts allocations, not `utility` fields).
double recompute_utility(const PlacementProblem& problem,
                         const PlacementResult& result);

}  // namespace farm::placement

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "placement/model.h"

namespace farm::placement {

double recompute_utility(const PlacementProblem& problem,
                         const PlacementResult& result) {
  std::unordered_map<std::string, const SeedModel*> seed_by_id;
  seed_by_id.reserve(problem.seeds.size());
  for (const auto& s : problem.seeds) seed_by_id[s.id] = &s;
  double total = 0;
  for (const auto& e : result.placements) {
    auto it = seed_by_id.find(e.seed);
    const SeedModel* seed = it == seed_by_id.end() ? nullptr : it->second;
    if (!seed) continue;
    if (e.variant < 0 ||
        static_cast<std::size_t>(e.variant) >= seed->variants.size())
      continue;
    total += seed->variants[static_cast<std::size_t>(e.variant)].utility(
        e.alloc);
  }
  return total;
}

std::vector<std::string> validate_placement(const PlacementProblem& problem,
                                            const PlacementResult& result,
                                            double tolerance) {
  std::vector<std::string> errors;
  auto fail = [&errors](std::string msg) { errors.push_back(std::move(msg)); };

  // Hashed indexes: validation runs after every memoized solve, so it
  // must stay O(placements + switches) — the old per-switch scan over all
  // placements (with an ordered-map lookup per pair) was quadratic and
  // dominated a 100k-seed resolve.
  std::unordered_map<std::string_view, const SeedModel*> seed_by_id;
  seed_by_id.reserve(problem.seeds.size());
  for (const auto& s : problem.seeds) seed_by_id[s.id] = &s;
  std::unordered_map<net::NodeId, const SwitchModel*> switch_by_node;
  switch_by_node.reserve(problem.switches.size());
  for (const auto& sw : problem.switches) switch_by_node[sw.node] = &sw;

  // Per-seed checks + uniqueness.
  std::unordered_set<std::string_view> placed;
  placed.reserve(result.placements.size());
  std::map<std::string_view, std::size_t> task_placed, task_all;
  for (const auto& s : problem.seeds) ++task_all[s.task];

  for (const auto& e : result.placements) {
    auto it = seed_by_id.find(e.seed);
    if (it == seed_by_id.end()) {
      fail("unknown seed placed: " + e.seed);
      continue;
    }
    const SeedModel& s = *it->second;
    if (!placed.insert(e.seed).second) {
      fail("seed placed twice: " + e.seed);  // C1: at most one switch
      continue;
    }
    ++task_placed[s.task];
    if (std::find(s.candidates.begin(), s.candidates.end(), e.node) ==
        s.candidates.end())
      fail("seed " + e.seed + " placed outside N^s");
    if (e.variant < 0 ||
        static_cast<std::size_t>(e.variant) >= s.variants.size()) {
      fail("seed " + e.seed + " uses invalid variant");
      continue;
    }
    // C2: allocation inside the variant's feasibility region.
    const auto& variant = s.variants[static_cast<std::size_t>(e.variant)];
    for (const auto& c : variant.constraints)
      if (c.eval(e.alloc) < -tolerance)
        fail("seed " + e.seed + " violates C2: " + c.to_string());
    // C3: allocation within the switch's total capacity.
    auto swit = switch_by_node.find(e.node);
    if (swit == switch_by_node.end()) {
      fail("seed " + e.seed + " placed on unknown switch");
      continue;
    }
    for (std::size_t d = 0; d < almanac::kNumResources; ++d)
      if (res_dim(e.alloc, d) > res_dim(swit->second->capacity, d) + tolerance)
        fail("seed " + e.seed + " violates C3 on dim " + std::to_string(d));
  }

  // C1: a task is placed entirely or not at all.
  for (const auto& [task, all] : task_all) {
    auto it = task_placed.find(task);
    std::size_t n = it == task_placed.end() ? 0 : it->second;
    if (n != 0 && n != all)
      fail("task " + std::string(task) + " partially placed (" +
           std::to_string(n) + "/" + std::to_string(all) + ")");
  }

  // C4: per-switch totals. Non-poll resources sum allocations (plus the
  // migration double-charge for seeds that moved away from their current
  // switch); the poll resource sums per-subject maxima. One pass over the
  // placements accumulates every switch's load.
  struct SwitchLoad {
    ResourcesValue used{};
    std::map<std::string_view, double> pollres;  // subject → max demand
  };
  std::unordered_map<net::NodeId, SwitchLoad> load;
  load.reserve(problem.switches.size());
  auto charge = [](SwitchLoad& l, const SwitchModel& sw, const SeedModel& s,
                   const ResourcesValue& alloc) {
    l.used.vCPU += alloc.vCPU;
    l.used.RAM += alloc.RAM;
    l.used.TCAM += alloc.TCAM;
    for (const auto& p : s.polls) {
      double demand = sw.alpha_poll * p.inv_ival.eval(alloc);
      auto [it, _] = l.pollres.try_emplace(p.subject, 0.0);
      it->second = std::max(it->second, demand);
    }
  };
  for (const auto& e : result.placements) {
    auto sit = seed_by_id.find(e.seed);
    if (sit == seed_by_id.end()) continue;  // reported above
    const SeedModel& s = *sit->second;
    if (auto swit = switch_by_node.find(e.node); swit != switch_by_node.end())
      charge(load[e.node], *swit->second, s, e.alloc);
    // Migration residue: a seed moving away keeps its old allocation on
    // its current switch until state transfer completes.
    auto cur = problem.current_placement.find(e.seed);
    if (cur == problem.current_placement.end() || cur->second == e.node)
      continue;
    auto swit = switch_by_node.find(cur->second);
    if (swit == switch_by_node.end()) continue;
    if (auto ra = problem.current_alloc.find(e.seed);
        ra != problem.current_alloc.end())
      charge(load[cur->second], *swit->second, s, ra->second);
  }
  for (const auto& sw : problem.switches) {
    auto lit = load.find(sw.node);
    if (lit == load.end()) continue;  // nothing placed, nothing to exceed
    const SwitchLoad& l = lit->second;
    if (l.used.vCPU > sw.capacity.vCPU + tolerance ||
        l.used.RAM > sw.capacity.RAM + tolerance ||
        l.used.TCAM > sw.capacity.TCAM + tolerance)
      fail("switch " + std::to_string(sw.node) + " over non-poll capacity");
    double total_poll = 0;
    for (const auto& [_, d] : l.pollres) total_poll += d;
    if (total_poll > sw.capacity.PCIe + tolerance)
      fail("switch " + std::to_string(sw.node) + " over polling capacity");
  }

  return errors;
}

}  // namespace farm::placement

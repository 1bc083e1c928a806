#include "placement/switch_lp.h"

#include <map>

#include "telemetry/prof.h"

namespace farm::placement {

namespace {

ResourcesValue from_values(const std::vector<double>& v, std::size_t base) {
  return ResourcesValue{v[base + almanac::kVCpu], v[base + almanac::kRam],
                        v[base + almanac::kTcam], v[base + almanac::kPcie]};
}

}  // namespace

// Deliberately not given its own profiler scope: this 4-variable LP runs
// once per (seed, variant) — tens of thousands of times per solve — and
// the "simplex" scope inside solve_lp already owns the frame; a wrapper
// here doubles the hot-path scope cost for no extra flamegraph depth.
std::optional<ResourcesValue> minimal_allocation(const UtilityVariant& variant,
                                                 const ResourcesValue& cap) {
  lp::Model m;
  m.set_maximize(false);
  for (std::size_t d = 0; d < almanac::kNumResources; ++d)
    m.add_continuous("r" + std::to_string(d), 0, res_dim(cap, d), 1);
  for (const auto& c : variant.constraints) {
    std::vector<lp::Term> terms;
    for (std::size_t d = 0; d < almanac::kNumResources; ++d)
      if (c.coeff[d] != 0)
        terms.push_back({static_cast<lp::VarId>(d), c.coeff[d]});
    m.add_constraint("c", std::move(terms), lp::Sense::kGe, -c.c0);
  }
  auto sol = lp::solve_lp(m);
  if (sol.status != lp::SolveStatus::kOptimal) return std::nullopt;
  return from_values(sol.values, 0);
}

lp::Model redistribution_model(const SwitchModel& sw,
                               const std::vector<PinnedSeed>& seeds,
                               const ResourcesValue& reserved) {
  lp::Model m;
  m.set_maximize(true);
  const std::size_t R = almanac::kNumResources;

  // Variables: res(s,d) then t(s) then pollres(p) — the layout
  // redistribute_on_switch reads the solution by.
  std::vector<lp::VarId> res_base(seeds.size());
  std::vector<lp::VarId> t_var(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    res_base[i] = static_cast<lp::VarId>(m.num_vars());
    for (std::size_t d = 0; d < R; ++d)
      m.add_continuous("res", 0, res_dim(sw.capacity, d), 0);
  }
  // Utility upper bound: generous box bound keeps t finite.
  double umax = 0;
  for (const auto& ps : seeds) {
    const auto& var = ps.seed->variants[static_cast<std::size_t>(ps.variant)];
    double u = 0;
    for (const auto& term : var.util_min_terms) {
      double v = term.c0;
      for (std::size_t d = 0; d < R; ++d)
        v += std::max(0.0, term.coeff[d] * res_dim(sw.capacity, d));
      u = std::max(u, v);
    }
    umax = std::max(umax, u);
  }
  for (std::size_t i = 0; i < seeds.size(); ++i)
    t_var[i] = m.add_continuous("t", 0, std::max(umax, 1.0), 1);

  std::map<std::string, lp::VarId> pollres;
  for (const auto& ps : seeds)
    for (const auto& p : ps.seed->polls)
      if (!pollres.count(p.subject))
        pollres[p.subject] = m.add_continuous("pollres", 0, lp::kInf, 0);

  // Per-seed constraints.
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto& var =
        seeds[i].seed->variants[static_cast<std::size_t>(seeds[i].variant)];
    // C2: feasibility region.
    for (const auto& c : var.constraints) {
      std::vector<lp::Term> terms;
      for (std::size_t d = 0; d < R; ++d)
        if (c.coeff[d] != 0)
          terms.push_back({res_base[i] + static_cast<lp::VarId>(d),
                           c.coeff[d]});
      m.add_constraint("C2", std::move(terms), lp::Sense::kGe, -c.c0);
    }
    // Epigraph: t ≤ every min-term.
    for (const auto& term : var.util_min_terms) {
      std::vector<lp::Term> terms{{t_var[i], 1.0}};
      for (std::size_t d = 0; d < R; ++d)
        if (term.coeff[d] != 0)
          terms.push_back({res_base[i] + static_cast<lp::VarId>(d),
                           -term.coeff[d]});
      m.add_constraint("epi", std::move(terms), lp::Sense::kLe, term.c0);
    }
    // Polling demand: pollres_p ≥ α · inv_ival(res).
    for (const auto& p : seeds[i].seed->polls) {
      std::vector<lp::Term> terms{{pollres[p.subject], 1.0}};
      for (std::size_t d = 0; d < R; ++d)
        if (p.inv_ival.coeff[d] != 0)
          terms.push_back({res_base[i] + static_cast<lp::VarId>(d),
                           -sw.alpha_poll * p.inv_ival.coeff[d]});
      m.add_constraint("poll", std::move(terms), lp::Sense::kGe,
                       sw.alpha_poll * p.inv_ival.c0);
    }
  }

  // C4: capacities (net of migration residue).
  for (std::size_t d = 0; d < R; ++d) {
    if (d == almanac::kPcie) continue;  // handled via pollres below
    std::vector<lp::Term> terms;
    for (std::size_t i = 0; i < seeds.size(); ++i)
      terms.push_back({res_base[i] + static_cast<lp::VarId>(d), 1.0});
    m.add_constraint("C4", std::move(terms), lp::Sense::kLe,
                     std::max(0.0, res_dim(sw.capacity, d) -
                                       res_dim(reserved, d)));
  }
  {
    std::vector<lp::Term> terms;
    for (auto& [_, v] : pollres) terms.push_back({v, 1.0});
    // Seeds' own PCIe allocations must also fit alongside shared polling?
    // The PCIe dimension *is* polling capacity: actual consumption is
    // pollres; res(·, PCIe) is the share the seed may assume when computing
    // its rate, bounded by the same capacity.
    if (!terms.empty())
      m.add_constraint("C4poll", std::move(terms), lp::Sense::kLe,
                       std::max(0.0, sw.capacity.PCIe - reserved.PCIe));
  }
  // Each seed's assumed PCIe share is also individually capped (C3 box
  // bound set at variable creation).

  return m;
}

std::optional<SwitchLpResult> redistribute_on_switch(
    const SwitchModel& sw, const std::vector<PinnedSeed>& seeds,
    const ResourcesValue& reserved, std::uint64_t* lp_solves) {
  if (seeds.empty()) return SwitchLpResult{};
  FARM_PROF_SCOPE("switch_lp");

  auto sol = lp::solve_lp(redistribution_model(sw, seeds, reserved));
  if (lp_solves) ++*lp_solves;
  if (sol.status != lp::SolveStatus::kOptimal) return std::nullopt;

  const std::size_t R = almanac::kNumResources;
  SwitchLpResult out;
  out.utility = sol.objective;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    out.allocs.push_back(from_values(sol.values, i * R));
    out.utilities.push_back(
        sol.value(static_cast<lp::VarId>(seeds.size() * R + i)));
  }
  return out;
}

std::optional<double> redistribution_value(const SwitchModel& sw,
                                           const std::vector<PinnedSeed>& seeds,
                                           const ResourcesValue& reserved,
                                           std::uint64_t* lp_solves) {
  if (seeds.empty()) return 0.0;
  FARM_PROF_SCOPE("switch_lp_value");

  auto value = lp::optimal_value(redistribution_model(sw, seeds, reserved));
  if (lp_solves) ++*lp_solves;
  return value;
}

}  // namespace farm::placement

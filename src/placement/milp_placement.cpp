#include "placement/milp_placement.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>

#include "placement/switch_lp.h"
#include "telemetry/prof.h"
#include "util/check.h"

namespace farm::placement {

PlacementResult first_fit_placement(const PlacementProblem& problem) {
  PlacementResult out;
  std::unordered_map<net::NodeId, ResourcesValue> used;
  std::unordered_map<net::NodeId, std::map<std::string, double>> polls;
  ResourcesValue unbounded{1e9, 1e9, 1e9, 1e9};

  // Group by task to honour C1.
  std::map<std::string, std::vector<const SeedModel*>> tasks;
  for (const auto& s : problem.seeds) tasks[s.task].push_back(&s);
  for (auto& [task, seeds] : tasks) {
    std::vector<PlacementEntry> staged;
    bool ok = true;
    for (const SeedModel* s : seeds) {
      bool placed = false;
      for (std::size_t v = 0; v < s->variants.size() && !placed; ++v) {
        auto alloc = minimal_allocation(s->variants[v], unbounded);
        if (!alloc) continue;
        for (net::NodeId n : s->candidates) {
          const SwitchModel* sw = problem.switch_model(n);
          if (!sw) continue;
          auto& u = used[n];
          bool fits = true;
          for (std::size_t d = 0; d < almanac::kNumResources; ++d) {
            if (d == almanac::kPcie) continue;
            if (res_dim(u, d) + res_dim(*alloc, d) >
                res_dim(sw->capacity, d) + 1e-9)
              fits = false;
          }
          double poll_total = 0, poll_inc = 0;
          for (const auto& [_, dmd] : polls[n]) poll_total += dmd;
          for (const auto& p : s->polls) {
            double demand = sw->alpha_poll * p.inv_ival.eval(*alloc);
            auto it = polls[n].find(p.subject);
            poll_inc +=
                std::max(0.0, demand - (it == polls[n].end() ? 0 : it->second));
          }
          if (poll_total + poll_inc > sw->capacity.PCIe + 1e-9) fits = false;
          if (!fits) continue;
          u.vCPU += alloc->vCPU;
          u.RAM += alloc->RAM;
          u.TCAM += alloc->TCAM;
          for (const auto& p : s->polls) {
            double demand = sw->alpha_poll * p.inv_ival.eval(*alloc);
            auto [it, _] = polls[n].try_emplace(p.subject, 0.0);
            it->second = std::max(it->second, demand);
          }
          PlacementEntry e;
          e.seed = s->id;
          e.node = n;
          e.variant = static_cast<int>(v);
          e.alloc = *alloc;
          e.utility = s->variants[v].utility(*alloc);
          staged.push_back(std::move(e));
          placed = true;
          break;
        }
      }
      if (!placed) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;  // drop the task entirely (C1)
    for (auto& e : staged) {
      out.total_utility += e.utility;
      out.placements.push_back(std::move(e));
    }
  }
  return out;
}

PlacementResult solve_milp_placement(const PlacementProblem& problem,
                                     const MilpPlacementOptions& options) {
  FARM_PROF_SCOPE("placement/milp_solve");
  auto t0 = std::chrono::steady_clock::now();

  // Capacity upper bounds across switches (for big-M and utility bounds).
  ResourcesValue capmax{};
  for (const auto& sw : problem.switches) {
    capmax.vCPU = std::max(capmax.vCPU, sw.capacity.vCPU);
    capmax.RAM = std::max(capmax.RAM, sw.capacity.RAM);
    capmax.TCAM = std::max(capmax.TCAM, sw.capacity.TCAM);
    capmax.PCIe = std::max(capmax.PCIe, sw.capacity.PCIe);
  }
  auto box_max = [&](const almanac::Poly& p) {
    double v = p.c0;
    for (std::size_t d = 0; d < almanac::kNumResources; ++d)
      v += std::max(0.0, p.coeff[d] * res_dim(capmax, d));
    return v;
  };
  auto box_min = [&](const almanac::Poly& p) {
    double v = p.c0;
    for (std::size_t d = 0; d < almanac::kNumResources; ++d)
      v += std::min(0.0, p.coeff[d] * res_dim(capmax, d));
    return v;
  };

  lp::Model m;
  m.set_maximize(true);
  const std::size_t R = almanac::kNumResources;

  // --- Variables -------------------------------------------------------------
  struct PlcVar {
    std::size_t seed;
    std::size_t cand;  // index into candidates
    std::size_t variant;
    lp::VarId plc;
    lp::VarId t;  // utility epigraph
  };
  std::vector<PlcVar> plcs;
  // res(s, n): one block per (seed, candidate).
  std::map<std::pair<std::size_t, std::size_t>, lp::VarId> res_base;
  std::map<std::string, lp::VarId> tplc;  // per task
  // Indices: plc entries per seed / per (seed, candidate), to keep the
  // constraint builders linear instead of rescanning all plcs.
  std::vector<std::vector<std::size_t>> plcs_of_seed(problem.seeds.size());
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
      plcs_of_pair;

  for (std::size_t si = 0; si < problem.seeds.size(); ++si) {
    const SeedModel& s = problem.seeds[si];
    if (!tplc.count(s.task)) tplc[s.task] = m.add_binary("tplc:" + s.task);
    for (std::size_t ci = 0; ci < s.candidates.size(); ++ci) {
      const SwitchModel* sw = problem.switch_model(s.candidates[ci]);
      if (!sw) continue;
      lp::VarId base = static_cast<lp::VarId>(m.num_vars());
      for (std::size_t d = 0; d < R; ++d)
        m.add_continuous("res", 0, res_dim(sw->capacity, d), 0);
      res_base[{si, ci}] = base;
      for (std::size_t vi = 0; vi < s.variants.size(); ++vi) {
        double umax = 0;
        for (const auto& term : s.variants[vi].util_min_terms)
          umax = std::max(umax, box_max(term));
        lp::VarId plc = m.add_binary("plc");
        lp::VarId t = m.add_continuous("t", 0, std::max(umax, 0.0), 1.0);
        plcs_of_seed[si].push_back(plcs.size());
        plcs_of_pair[{si, ci}].push_back(plcs.size());
        plcs.push_back({si, ci, vi, plc, t});
      }
    }
  }

  // --- C1: all of a task's seeds placed, or none ------------------------------
  for (std::size_t si = 0; si < problem.seeds.size(); ++si) {
    std::vector<lp::Term> terms;
    for (std::size_t pi : plcs_of_seed[si])
      terms.push_back({plcs[pi].plc, 1.0});
    terms.push_back({tplc[problem.seeds[si].task], -1.0});
    m.add_constraint("C1", std::move(terms), lp::Sense::kEq, 0);
  }

  // --- Per-(s,n): C3 and per-variant C2 / epigraph ----------------------------
  for (const auto& [key, base] : res_base) {
    auto [si, ci] = key;
    const SeedModel& s = problem.seeds[si];
    const SwitchModel* sw = problem.switch_model(s.candidates[ci]);
    // C3: res(s,n,d) ≤ cap·Σ_v plc(s,n,v).
    for (std::size_t d = 0; d < R; ++d) {
      std::vector<lp::Term> terms{{base + static_cast<lp::VarId>(d), 1.0}};
      for (std::size_t pi : plcs_of_pair[{si, ci}])
        terms.push_back({plcs[pi].plc, -res_dim(sw->capacity, d)});
      m.add_constraint("C3", std::move(terms), lp::Sense::kLe, 0);
    }
  }
  for (const auto& pv : plcs) {
    const SeedModel& s = problem.seeds[pv.seed];
    const auto& variant = s.variants[pv.variant];
    lp::VarId base = res_base.at({pv.seed, pv.cand});
    // C2 with big-M relaxation: c(res) + M(1-plc) ≥ 0.
    for (const auto& c : variant.constraints) {
      double M = std::max(0.0, -box_min(c));
      std::vector<lp::Term> terms;
      for (std::size_t d = 0; d < R; ++d)
        if (c.coeff[d] != 0)
          terms.push_back({base + static_cast<lp::VarId>(d), c.coeff[d]});
      terms.push_back({pv.plc, -M});
      m.add_constraint("C2", std::move(terms), lp::Sense::kGe, -c.c0 - M);
    }
    // Epigraph: t ≤ Umax·plc and t ≤ term(res) + M_t(1-plc).
    {
      double umax = m.vars()[static_cast<std::size_t>(pv.t)].upper;
      m.add_constraint("tplc", {{pv.t, 1.0}, {pv.plc, -umax}}, lp::Sense::kLe,
                       0);
    }
    for (const auto& term : variant.util_min_terms) {
      // t ≤ term(res) + Mt·(1-plc):  relaxed when unplaced (t is forced to
      // 0 by the Umax·plc cap anyway), tight when placed.
      double Mt = std::max(0.0, -box_min(term)) +
                  m.vars()[static_cast<std::size_t>(pv.t)].upper;
      std::vector<lp::Term> terms{{pv.t, 1.0}};
      for (std::size_t d = 0; d < R; ++d)
        if (term.coeff[d] != 0)
          terms.push_back({base + static_cast<lp::VarId>(d), -term.coeff[d]});
      terms.push_back({pv.plc, Mt});
      m.add_constraint("epi", std::move(terms), lp::Sense::kLe,
                       term.c0 + Mt);
    }
  }

  // --- Polling: pollres(n,p) and (C4) -----------------------------------------
  // pollres variables per (switch, subject).
  std::map<std::pair<net::NodeId, std::string>, lp::VarId> pollres;
  for (std::size_t si = 0; si < problem.seeds.size(); ++si)
    for (net::NodeId n : problem.seeds[si].candidates)
      for (const auto& p : problem.seeds[si].polls)
        if (!pollres.count({n, p.subject}))
          pollres[{n, p.subject}] = m.add_continuous("pollres", 0, lp::kInf, 0);

  for (const auto& [key, base] : res_base) {
    auto [si, ci] = key;
    const SeedModel& s = problem.seeds[si];
    net::NodeId n = s.candidates[ci];
    const SwitchModel* sw = problem.switch_model(n);
    for (const auto& p : s.polls) {
      // pollres ≥ α[inv(res) - (1-P)·inv(0)]  where P = Σ_v plc(s,n,v).
      double inv0 = p.inv_ival.c0;
      std::vector<lp::Term> terms{{pollres.at({n, p.subject}), 1.0}};
      for (std::size_t d = 0; d < R; ++d)
        if (p.inv_ival.coeff[d] != 0)
          terms.push_back({base + static_cast<lp::VarId>(d),
                           -sw->alpha_poll * p.inv_ival.coeff[d]});
      for (std::size_t pi : plcs_of_pair[{si, ci}])
        terms.push_back({plcs[pi].plc, -sw->alpha_poll * inv0});
      m.add_constraint("pollres", std::move(terms), lp::Sense::kGe, 0);
    }
  }

  // --- C4: switch capacity ------------------------------------------------------
  // Migration terms: seeds currently on n that move away keep res' charged.
  std::map<net::NodeId, std::vector<lp::VarId>> res_on_node;
  for (const auto& [key, base] : res_base)
    res_on_node[problem.seeds[key.first].candidates[key.second]].push_back(
        base);
  for (const auto& sw : problem.switches) {
    for (std::size_t d = 0; d < R; ++d) {
      if (d == almanac::kPcie) continue;
      std::vector<lp::Term> terms;
      for (lp::VarId base : res_on_node[sw.node])
        terms.push_back({base + static_cast<lp::VarId>(d), 1.0});
      // Migration residue: for seeds with current placement on sw.node,
      // every plc on a *different* switch adds res'(s,d).
      for (std::size_t si = 0; si < problem.seeds.size(); ++si) {
        auto cur = problem.current_placement.find(problem.seeds[si].id);
        if (cur == problem.current_placement.end() || cur->second != sw.node)
          continue;
        auto ra = problem.current_alloc.find(problem.seeds[si].id);
        double rd = ra == problem.current_alloc.end()
                        ? 0
                        : res_dim(ra->second, d);
        if (rd == 0) continue;
        for (std::size_t pi : plcs_of_seed[si])
          if (problem.seeds[si].candidates[plcs[pi].cand] != sw.node)
            terms.push_back({plcs[pi].plc, rd});
      }
      if (!terms.empty())
        m.add_constraint("C4", std::move(terms), lp::Sense::kLe,
                         res_dim(sw.capacity, d));
    }
    // Polling capacity.
    std::vector<lp::Term> terms;
    for (const auto& [key, v] : pollres)
      if (key.first == sw.node) terms.push_back({v, 1.0});
    if (!terms.empty())
      m.add_constraint("C4poll", std::move(terms), lp::Sense::kLe,
                       sw.capacity.PCIe);
  }

  // --- Solve -----------------------------------------------------------------
  auto sol = lp::solve_milp(m, {.timeout_seconds = options.timeout_seconds});

  PlacementResult out;
  out.milp_nodes = sol.nodes_explored;
  out.timed_out = sol.status == lp::SolveStatus::kTimeLimit;
  out.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (!sol.feasible() || sol.values.empty()) {
    // No incumbent within budget: fall back to the first-fit start
    // heuristic (what a commercial solver's presolve would have supplied).
    PlacementResult best = first_fit_placement(problem);
    best.timed_out = sol.status == lp::SolveStatus::kTimeLimit;
    best.milp_nodes = sol.nodes_explored;
    best.solve_seconds = out.solve_seconds;
    return best;
  }

  for (const auto& pv : plcs) {
    if (sol.value(pv.plc) < 0.5) continue;
    const SeedModel& s = problem.seeds[pv.seed];
    lp::VarId base = res_base.at({pv.seed, pv.cand});
    PlacementEntry e;
    e.seed = s.id;
    e.node = s.candidates[pv.cand];
    e.variant = static_cast<int>(pv.variant);
    e.alloc = ResourcesValue{
        sol.value(base + almanac::kVCpu), sol.value(base + almanac::kRam),
        sol.value(base + almanac::kTcam), sol.value(base + almanac::kPcie)};
    e.utility = s.variants[pv.variant].utility(e.alloc);
    out.total_utility += e.utility;
    out.placements.push_back(std::move(e));
  }
  return out;
}

}  // namespace farm::placement

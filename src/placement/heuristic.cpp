#include "placement/heuristic.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>

#include "placement/memo.h"
#include "placement/switch_lp.h"
#include "telemetry/prof.h"
#include "util/check.h"
#include "util/log.h"
#include "util/pool.h"

namespace farm::placement {

namespace {

// Recomputed migration benefits below this are noise, not improvements;
// applying them would churn placements (and with interacting moves can
// make the objective drift downward through LP round-off).
constexpr double kBenefitEps = 1e-9;

// Step 4 prices at most this many (seed, alternative-switch) moves per
// solve; keeps it subquadratic on 10k-seed instances.
constexpr std::size_t kMaxMigrationEvals = 5000;

struct SwitchState {
  const SwitchModel* model = nullptr;
  ResourcesValue used{};                       // min-alloc + residue charges
  std::map<std::string, double> poll_demand;   // subject → max inv demand
  std::vector<PinnedSeed> pinned;
  std::vector<std::string> pinned_ids;

  double poll_total() const {
    double t = 0;
    for (const auto& [_, d] : poll_demand) t += d;
    return t;
  }

  // Incremental PCIe demand if `seed` polls at allocation `alloc`.
  double incremental_poll(const SeedModel& seed,
                          const ResourcesValue& alloc) const {
    double inc = 0;
    for (const auto& p : seed.polls) {
      double demand = model->alpha_poll * p.inv_ival.eval(alloc);
      auto it = poll_demand.find(p.subject);
      double existing = it == poll_demand.end() ? 0 : it->second;
      inc += std::max(0.0, demand - existing);
    }
    return inc;
  }

  bool fits(const SeedModel& seed, const ResourcesValue& alloc) const {
    for (std::size_t d = 0; d < almanac::kNumResources; ++d) {
      if (d == almanac::kPcie) continue;
      if (res_dim(used, d) + res_dim(alloc, d) >
          res_dim(model->capacity, d) + 1e-9)
        return false;
    }
    return poll_total() + incremental_poll(seed, alloc) <=
           model->capacity.PCIe + 1e-9;
  }

  void commit(const SeedModel& seed, int variant,
              const ResourcesValue& alloc) {
    for (std::size_t d = 0; d < almanac::kNumResources; ++d) {
      if (d == almanac::kPcie) continue;
      res_dim(used, d) += res_dim(alloc, d);
    }
    for (const auto& p : seed.polls) {
      double demand = model->alpha_poll * p.inv_ival.eval(alloc);
      auto [it, _] = poll_demand.try_emplace(p.subject, 0.0);
      it->second = std::max(it->second, demand);
    }
    pinned.push_back({&seed, variant});
    pinned_ids.push_back(seed.id);
  }

  // Charges migration residue (non-poll dims only; polling residue is
  // second-order and short-lived).
  void charge_residue(const ResourcesValue& alloc) {
    for (std::size_t d = 0; d < almanac::kNumResources; ++d) {
      if (d == almanac::kPcie) continue;
      res_dim(used, d) += res_dim(alloc, d);
    }
  }

  void remove(const std::string& seed_id) {
    for (std::size_t i = 0; i < pinned_ids.size(); ++i)
      if (pinned_ids[i] == seed_id) {
        pinned.erase(pinned.begin() + static_cast<std::ptrdiff_t>(i));
        pinned_ids.erase(pinned_ids.begin() +
                         static_cast<std::ptrdiff_t>(i));
        return;
      }
  }
};

// The residue a seed charges at its old switch when it moves.
ResourcesValue residue_of(const PlacementProblem& problem,
                          const std::string& seed_id) {
  auto it = problem.current_alloc.find(seed_id);
  return it == problem.current_alloc.end() ? ResourcesValue{0.5, 64, 8, 0.5}
                                           : it->second;
}

// Read-only map lookups for the parallel phases: operator[] would insert
// (a mutation — and a data race across workers), find() does not.
ResourcesValue reserved_of(
    const std::unordered_map<net::NodeId, ResourcesValue>& reserved,
    net::NodeId node) {
  auto it = reserved.find(node);
  return it == reserved.end() ? ResourcesValue{} : it->second;
}

double utility_of(const std::unordered_map<net::NodeId, double>& utilities,
                  net::NodeId node) {
  auto it = utilities.find(node);
  return it == utilities.end() ? 0 : it->second;
}

PlacementResult solve_once(const PlacementProblem& problem,
                           const HeuristicOptions& options,
                           util::ThreadPool& pool) {
  // A root-anchored task, not a scope: the path stays placement/start
  // beside placement/solve, where farmbench's placement.start_ms reads it.
  FARM_PROF_TASK("placement/start");
  PlacementResult result;

  // Every redistribution LP goes through the memo when one is attached;
  // cached values are pure functions of the inputs, so the two paths
  // produce bit-identical placements (see memo.h).
  auto redistribute = [memo = options.memo](
                          const SwitchModel& sw,
                          const std::vector<PinnedSeed>& pinned,
                          const ResourcesValue& res, std::uint64_t* solves) {
    return memo ? memo->redistribute(sw, pinned, res, solves)
                : redistribute_on_switch(sw, pinned, res, solves);
  };

  std::unordered_map<net::NodeId, SwitchState> switches;
  for (const auto& sw : problem.switches) switches[sw.node].model = &sw;

  // Pre-compute per-seed, per-variant minimum utility / minimal allocation
  // (capacity-independent part). One independent LP per variant — the
  // first parallel batch; reduced by seed index.
  struct VariantInfo {
    std::optional<ResourcesValue> min_alloc;  // unbounded-box minimal alloc
    double min_util = 0;
  };
  ResourcesValue unbounded{1e9, 1e9, 1e9, 1e9};
  struct PrecomputeOut {
    std::vector<VariantInfo> infos;
    std::uint64_t solves = 0;
  };
  auto per_seed_infos = pool.parallel_map<PrecomputeOut>(
      problem.seeds.size(), [&](std::size_t i) {
        FARM_PROF_TASK("placement/precompute");
        PrecomputeOut out;
        out.infos.reserve(problem.seeds[i].variants.size());
        for (const auto& v : problem.seeds[i].variants) {
          VariantInfo vi;
          if (options.memo) {
            auto e = options.memo->variant_info(v, unbounded, &out.solves);
            vi.min_alloc = e.min_alloc;
            vi.min_util = e.min_util;
          } else {
            vi.min_alloc = minimal_allocation(v, unbounded);
            if (vi.min_alloc) vi.min_util = v.utility(*vi.min_alloc);
            ++out.solves;
          }
          out.infos.push_back(vi);
        }
        return out;
      });
  std::unordered_map<const SeedModel*, std::vector<VariantInfo>> variant_info;
  for (std::size_t i = 0; i < problem.seeds.size(); ++i) {
    result.lp_solves += per_seed_infos[i].solves;
    variant_info[&problem.seeds[i]] = std::move(per_seed_infos[i].infos);
  }

  // Greedy decisions survive the scope block below into step 3.
  struct Decision {
    net::NodeId node;
    int variant;
    ResourcesValue min_alloc;
  };
  std::unordered_map<std::string, Decision> decisions;
  {
  FARM_PROF_SCOPE("greedy");
  // --- Step 1: order tasks by decreasing minimum utility -------------------
  std::map<std::string, std::vector<const SeedModel*>> tasks;
  for (const auto& s : problem.seeds) tasks[s.task].push_back(&s);
  std::vector<std::pair<double, std::string>> task_order;
  for (const auto& [task, seeds] : tasks) {
    double u = 0;
    for (const SeedModel* s : seeds) {
      double best = 0;
      for (const auto& vi : variant_info[s]) best = std::max(best, vi.min_util);
      u += best;
    }
    task_order.emplace_back(u, task);
  }
  std::sort(task_order.rbegin(), task_order.rend());

  // --- Step 2: greedy placement --------------------------------------------
  for (const auto& [task_util, task] : task_order) {
    (void)task_util;
    std::vector<std::pair<const SeedModel*, Decision>> staged;
    bool task_ok = true;
    for (const SeedModel* s : tasks[task]) {
      auto cur = problem.current_placement.find(s->id);
      net::NodeId cur_node =
          cur == problem.current_placement.end() ? net::kInvalidNode
                                                 : cur->second;
      const auto& infos = variant_info[s];
      // Best (node, variant): highest min utility; among equals prefer the
      // current node (no migration), then the smallest incremental polling
      // demand (aggregation-friendliness).
      bool found = false;
      Decision best{};
      double best_score = -1;
      double best_poll = 0;
      bool best_is_current = false;
      for (net::NodeId n : s->candidates) {
        auto swit = switches.find(n);
        if (swit == switches.end()) continue;
        SwitchState& st = swit->second;
        for (std::size_t v = 0; v < s->variants.size(); ++v) {
          if (!infos[v].min_alloc) continue;
          ResourcesValue alloc = *infos[v].min_alloc;
          // Box-check against this switch's remaining capacity.
          if (!st.fits(*s, alloc)) continue;
          // Migration residue must also fit at the old switch.
          bool is_current = n == cur_node;
          if (!is_current && cur_node != net::kInvalidNode) {
            auto old_it = switches.find(cur_node);
            if (old_it != switches.end()) {
              ResourcesValue res = residue_of(problem, s->id);
              bool ok = true;
              for (std::size_t d = 0; d < almanac::kNumResources; ++d) {
                if (d == almanac::kPcie) continue;
                if (res_dim(old_it->second.used, d) + res_dim(res, d) >
                    res_dim(old_it->second.model->capacity, d) + 1e-9)
                  ok = false;
              }
              if (!ok) continue;
            }
          }
          double score = infos[v].min_util;
          double poll = st.incremental_poll(*s, alloc);
          bool better =
              !found || score > best_score + 1e-12 ||
              (score > best_score - 1e-12 &&
               ((is_current && !best_is_current) ||
                (is_current == best_is_current && poll < best_poll)));
          if (better) {
            found = true;
            best = Decision{n, static_cast<int>(v), alloc};
            best_score = score;
            best_poll = poll;
            best_is_current = is_current;
          }
        }
      }
      if (!found) {
        task_ok = false;
        break;
      }
      // Commit tentatively (capacity bookkeeping); rollback is wholesale.
      SwitchState& st = switches[best.node];
      st.commit(*s, best.variant, best.min_alloc);
      if (cur_node != net::kInvalidNode && cur_node != best.node) {
        auto old_it = switches.find(cur_node);
        if (old_it != switches.end())
          old_it->second.charge_residue(residue_of(problem, s->id));
      }
      staged.emplace_back(s, best);
    }
    if (!task_ok) {
      // C1: drop the whole task; rebuild switch states from scratch is
      // expensive — instead undo the staged commits.
      for (auto& [s, d] : staged) {
        SwitchState& st = switches[d.node];
        st.remove(s->id);
        for (std::size_t dd = 0; dd < almanac::kNumResources; ++dd) {
          if (dd == almanac::kPcie) continue;
          res_dim(st.used, dd) -= res_dim(d.min_alloc, dd);
        }
        // Poll demand / residue over-accounting after rollback is accepted:
        // it only makes the remaining greedy slightly conservative.
      }
      continue;
    }
    for (auto& [s, d] : staged) decisions[s->id] = d;
  }
  }  // greedy scope

  // --- Step 3: per-switch LP redistribution --------------------------------
  // Migration residue per switch (seeds that moved away keep their old
  // allocation reserved during state transfer).
  std::unordered_map<net::NodeId, ResourcesValue> reserved;
  for (const auto& [seed_id, node] : problem.current_placement) {
    auto d = decisions.find(seed_id);
    if (d == decisions.end() || d->second.node == node) continue;
    ResourcesValue res = residue_of(problem, seed_id);
    auto& acc = reserved[node];
    acc.vCPU += res.vCPU;
    acc.RAM += res.RAM;
    acc.TCAM += res.TCAM;
    acc.PCIe += res.PCIe;
  }

  // The LPs decompose per switch: solve them as one parallel batch over a
  // node-sorted job list, then fold the results back in index order.
  std::vector<net::NodeId> step3_nodes;
  step3_nodes.reserve(switches.size());
  for (const auto& [node, _] : switches) step3_nodes.push_back(node);
  std::sort(step3_nodes.begin(), step3_nodes.end());
  struct Step3Out {
    std::optional<SwitchLpResult> lp;
    std::uint64_t solves = 0;
  };
  auto step3 = pool.parallel_map<Step3Out>(
      step3_nodes.size(), [&](std::size_t i) {
        FARM_PROF_TASK("placement/step3");
        const SwitchState& st = switches.find(step3_nodes[i])->second;
        Step3Out out;
        out.lp = redistribute(*st.model, st.pinned,
                              reserved_of(reserved, step3_nodes[i]),
                              &out.solves);
        return out;
      });

  std::unordered_map<std::string, PlacementEntry> entries;
  std::unordered_map<net::NodeId, double> switch_utility;
  for (std::size_t si = 0; si < step3_nodes.size(); ++si) {
    net::NodeId node = step3_nodes[si];
    SwitchState& st = switches.find(node)->second;
    result.lp_solves += step3[si].solves;
    const auto& lp = step3[si].lp;
    if (!lp) {
      // Fall back to the greedy minimal allocations.
      switch_utility[node] = 0;
      for (std::size_t i = 0; i < st.pinned.size(); ++i) {
        const auto& vi =
            variant_info[st.pinned[i].seed]
                        [static_cast<std::size_t>(st.pinned[i].variant)];
        PlacementEntry e;
        e.seed = st.pinned[i].seed->id;
        e.node = node;
        e.variant = st.pinned[i].variant;
        e.alloc = vi.min_alloc.value_or(ResourcesValue{});
        e.utility = vi.min_util;
        switch_utility[node] += e.utility;
        entries[e.seed] = e;
      }
      continue;
    }
    for (std::size_t i = 0; i < st.pinned.size(); ++i) {
      PlacementEntry e;
      e.seed = st.pinned[i].seed->id;
      e.node = node;
      e.variant = st.pinned[i].variant;
      e.alloc = lp->allocs[i];
      e.utility = lp->utilities[i];
      entries[e.seed] = e;
    }
    switch_utility[node] = lp->utility;
  }

  // --- Steps 4 & 5: migration by decreasing benefit ------------------------
  struct Move {
    const SeedModel* seed;
    net::NodeId from, to;
    int variant;
    double benefit = 0;
  };
  // A move's price: the target's LP with the seed, then the source's LP
  // without it (with the seed's residue), against the current switch
  // utilities. Step 4 prices every candidate through it and step 5
  // re-prices each move before applying it. It reads the maps through
  // find() only, so the pricing batch may call it from any worker.
  struct Priced {
    std::vector<PinnedSeed> target_pinned, source_pinned;
    ResourcesValue source_reserved;
    SwitchLpResult target_lp, source_lp;
    double benefit = 0;
  };
  auto price = [&](const Move& mv,
                   std::uint64_t* solves) -> std::optional<Priced> {
    Priced p;
    const SwitchState& target = switches.find(mv.to)->second;
    p.target_pinned = target.pinned;
    p.target_pinned.push_back({mv.seed, mv.variant});
    auto target_lp = redistribute(*target.model, p.target_pinned,
                                  reserved_of(reserved, mv.to), solves);
    if (!target_lp) return std::nullopt;
    const SwitchState& source = switches.find(mv.from)->second;
    for (const auto& pin : source.pinned)
      if (pin.seed->id != mv.seed->id) p.source_pinned.push_back(pin);
    // Residue applies only when the seed is *actually deployed* at the
    // source (plc' = 1): the doubled-resources window exists while its
    // state transfers. Re-deciding a fresh placement is free.
    p.source_reserved = reserved_of(reserved, mv.from);
    auto cur = problem.current_placement.find(mv.seed->id);
    if (cur != problem.current_placement.end() && cur->second == mv.from) {
      ResourcesValue own = residue_of(problem, mv.seed->id);
      p.source_reserved.vCPU += own.vCPU;
      p.source_reserved.RAM += own.RAM;
      p.source_reserved.TCAM += own.TCAM;
    }
    auto source_lp = redistribute(*source.model, p.source_pinned,
                                  p.source_reserved, solves);
    if (!source_lp) return std::nullopt;
    p.target_lp = std::move(*target_lp);
    p.source_lp = std::move(*source_lp);
    // Benefit = ΔU(target with s) + ΔU(source without s).
    p.benefit = (p.target_lp.utility - utility_of(switch_utility, mv.to)) +
                (p.source_lp.utility - utility_of(switch_utility, mv.from));
    return p;
  };

  // Repeated until a sweep applies nothing (bounded): applying a move
  // changes the marginal value of others, so benefits are recomputed.
  std::size_t evals = 0;
  bool improved = options.enable_migration_pass;
  {
  FARM_PROF_SCOPE("migrate");
  for (int sweep = 0; sweep < 4 && improved; ++sweep) {
    improved = false;
    // Enumerate candidate moves sequentially (cheap; also what meters the
    // eval budget), then price them as a parallel LP batch. The pricing
    // phase only reads the step-3 state — every mutation happens in the
    // apply phase below — so the batch decomposes perfectly.
    std::vector<Move> candidates;
    for (const auto& s : problem.seeds) {
      if (evals >= kMaxMigrationEvals) break;
      auto eit = entries.find(s.id);
      if (eit == entries.end()) continue;
      net::NodeId from = eit->second.node;
      for (net::NodeId to : s.candidates) {
        if (to == from) continue;
        if (evals >= kMaxMigrationEvals) break;
        if (!switches.count(to) || !switches.count(from)) continue;
        ++evals;
        candidates.push_back({&s, from, to, eit->second.variant});
      }
    }

    struct EvalOut {
      double benefit = 0;  // 0 when either LP is infeasible
      std::uint64_t solves = 0;
    };
    auto priced = pool.parallel_map<EvalOut>(
        candidates.size(), [&](std::size_t i) {
          FARM_PROF_TASK("placement/step4_price");
          EvalOut out;
          if (auto p = price(candidates[i], &out.solves))
            out.benefit = p->benefit;
          return out;
        });

    std::vector<Move> moves;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      result.lp_solves += priced[i].solves;
      if (priced[i].benefit > kBenefitEps) {
        moves.push_back(candidates[i]);
        moves.back().benefit = priced[i].benefit;
      }
    }
    std::sort(moves.begin(), moves.end(),
              [](const Move& a, const Move& b) {
                if (a.benefit != b.benefit) return a.benefit > b.benefit;
                // Stable order for equal benefits, independent of the
                // enumeration that produced them.
                if (a.seed->id != b.seed->id) return a.seed->id < b.seed->id;
                return a.to < b.to;
              });
    FARM_PROF_SCOPE("apply");
    for (const auto& mv : moves) {
      // Earlier applied moves shifted switch utilities (and pinned sets),
      // so the scored benefit is stale: re-price against the evolving
      // state and apply only if the *recomputed* benefit stays positive —
      // an interacting move whose recomputed benefit turns ≤ 0 must be
      // skipped, not applied on the strength of its stale score.
      auto eit = entries.find(mv.seed->id);
      std::optional<Priced> p;
      if (eit != entries.end() && eit->second.node == mv.from)
        p = price(mv, &result.lp_solves);
      if (!p || p->benefit <= kBenefitEps) {
        FARM_PROF_COUNT("placement.migration.rejected", 1);
        continue;
      }
      improved = true;
      FARM_PROF_COUNT("placement.migration.applied", 1);
      // Apply the move.
      SwitchState& src = switches.find(mv.from)->second;
      SwitchState& dst = switches.find(mv.to)->second;
      src.remove(mv.seed->id);
      dst.pinned = std::move(p->target_pinned);
      dst.pinned_ids.push_back(mv.seed->id);
      // The residue persists while the state transfers.
      reserved[mv.from] = p->source_reserved;
      switch_utility[mv.to] = p->target_lp.utility;
      switch_utility[mv.from] = p->source_lp.utility;
      for (std::size_t i = 0; i < dst.pinned.size(); ++i) {
        auto& e = entries[dst.pinned[i].seed->id];
        e.seed = dst.pinned[i].seed->id;
        e.node = mv.to;
        e.variant = dst.pinned[i].variant;
        e.alloc = p->target_lp.allocs[i];
        e.utility = p->target_lp.utilities[i];
      }
      for (std::size_t i = 0; i < p->source_pinned.size(); ++i) {
        auto& e = entries[p->source_pinned[i].seed->id];
        e.alloc = p->source_lp.allocs[i];
        e.utility = p->source_lp.utilities[i];
      }
    }
  }
  }  // migrate scope

  for (auto& [_, e] : entries) result.placements.push_back(e);
  std::sort(result.placements.begin(), result.placements.end(),
            [](const PlacementEntry& a, const PlacementEntry& b) {
              return a.seed < b.seed;
            });
  result.total_utility = 0;
  for (const auto& e : result.placements) result.total_utility += e.utility;
  return result;
}

// One solve through the memo, bracketed by its per-solve lifecycle.
PlacementResult solve_memoized(const PlacementProblem& problem,
                               const HeuristicOptions& options,
                               util::ThreadPool& pool) {
  options.memo->prepare(problem);
  PlacementResult result = solve_once(problem, options, pool);
  options.memo->finish();
  return result;
}

}  // namespace

PlacementResult solve_heuristic(const PlacementProblem& problem,
                                const HeuristicOptions& options) {
  FARM_PROF_SCOPE("placement/solve");
  auto t0 = std::chrono::steady_clock::now();
  util::ThreadPool pool;

  PlacementResult result;
  if (!options.memo) {
    result = solve_once(problem, options, pool);
  } else {
    result = solve_memoized(problem, options, pool);
    // Memo values are pure, so with an intact memo this never fires; a
    // result that breaks (C1)-(C4) means a corrupted entry, repaired by
    // emptying the memo and solving again.
    auto errors = validate_placement(problem, result);
    if (!errors.empty()) {
      FARM_LOG(kWarn) << "memoized placement failed validation ("
                      << errors.front() << "); clearing the LP memo and "
                      << "re-solving";
      options.memo->clear();
      result = solve_memoized(problem, options, pool);
    }
  }
  result.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace farm::placement

#include "placement/heuristic.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <span>
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

// Step 4's screen drops a running seed's move whose value-only benefit is
// at most −kScreenMargin·(1 + |U_to| + |U_from|). Measured, screened and
// exact benefits differ by under 1e-15 of that scale, and no running
// seed's move that failed to pay came within 1e-4 of it.
constexpr double kScreenMargin = 1e-6;

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
    bool screened = false;  // ruled out by the screen, never priced
  };
  // A move's two LPs: the target's pinned seeds with the mover, and the
  // source's without it. Residue applies only when the seed is *actually
  // deployed* at the source (plc' = 1): the doubled-resources window exists
  // while its state transfers. Re-deciding a fresh placement is free. The
  // source side depends only on the seed and its source, so the read-only
  // batch below shares it across the seed's targets.
  auto runs_at = [&](const SeedModel& seed, net::NodeId node) {
    auto cur = problem.current_placement.find(seed.id);
    return cur != problem.current_placement.end() && cur->second == node;
  };
  struct SourceSide {
    std::vector<PinnedSeed> pinned;
    ResourcesValue reserved;
  };
  auto source_side = [&](const Move& mv) {
    SourceSide src;
    for (const auto& pin : switches.find(mv.from)->second.pinned)
      if (pin.seed->id != mv.seed->id) src.pinned.push_back(pin);
    src.reserved = reserved_of(reserved, mv.from);
    if (runs_at(*mv.seed, mv.from)) {
      ResourcesValue own = residue_of(problem, mv.seed->id);
      src.reserved.vCPU += own.vCPU;
      src.reserved.RAM += own.RAM;
      src.reserved.TCAM += own.TCAM;
    }
    return src;
  };
  auto target_pinned = [&](const Move& mv) {
    std::vector<PinnedSeed> pinned = switches.find(mv.to)->second.pinned;
    pinned.push_back({mv.seed, mv.variant});
    return pinned;
  };
  // Benefit = ΔU(target with s) + ΔU(source without s), against the current
  // switch utilities. Every caller sums the same operands in this order, so
  // a shared source side leaves each benefit's bits as they were.
  auto benefit_of = [&](const Move& mv, double u_to, double u_from) {
    return (u_to - utility_of(switch_utility, mv.to)) +
           (u_from - utility_of(switch_utility, mv.from));
  };
  // A switch's LP as an optional utility: the exact one, and the screen's
  // value-only one. Both go through the memo when one is attached.
  auto exact_utility = [&](net::NodeId node,
                           const std::vector<PinnedSeed>& pinned,
                           const ResourcesValue& res,
                           std::uint64_t* solves) -> std::optional<double> {
    auto lp = redistribute(*switches.find(node)->second.model, pinned, res,
                           solves);
    if (!lp) return std::nullopt;
    return lp->utility;
  };
  auto value_utility = [&, memo = options.memo](
                           net::NodeId node,
                           const std::vector<PinnedSeed>& pinned,
                           const ResourcesValue& res, std::uint64_t* solves) {
    const SwitchModel& sw = *switches.find(node)->second.model;
    return memo ? memo->redistribution_value(sw, pinned, res, solves)
                : redistribution_value(sw, pinned, res, solves);
  };
  // One seed's moves through `lp` (one of the two above): each target's LP
  // with the seed, then the source's without it, solved once and shared by
  // the seed's targets. sink(mv, benefit) gets every move whose two LPs
  // are optimal; a screened move is not solved again.
  auto seed_benefits = [&](std::span<Move> seed_moves, auto&& lp,
                           std::uint64_t* solves, auto&& sink) {
    std::optional<double> u_from;
    for (Move& mv : seed_moves) {
      if (mv.screened) continue;
      auto u_to = lp(mv.to, target_pinned(mv), reserved_of(reserved, mv.to),
                     solves);
      if (!u_to) continue;
      if (!u_from) {
        const SourceSide src = source_side(mv);
        u_from = lp(mv.from, src.pinned, src.reserved, solves);
        if (!u_from) return;
      }
      sink(mv, benefit_of(mv, *u_to, *u_from));
    }
  };
  // A move's exact price, with the LPs' allocations: step 5 re-prices each
  // move through this before applying it, against the state the moves
  // applied before it left. It reads the maps through find() only.
  struct Priced {
    std::vector<PinnedSeed> target_pinned;
    SourceSide source;
    SwitchLpResult target_lp, source_lp;
    double benefit = 0;
  };
  auto price = [&](const Move& mv,
                   std::uint64_t* solves) -> std::optional<Priced> {
    Priced p;
    p.target_pinned = target_pinned(mv);
    auto target_lp = redistribute(*switches.find(mv.to)->second.model,
                                  p.target_pinned,
                                  reserved_of(reserved, mv.to), solves);
    if (!target_lp) return std::nullopt;
    p.source = source_side(mv);
    auto source_lp = redistribute(*switches.find(mv.from)->second.model,
                                  p.source.pinned, p.source.reserved, solves);
    if (!source_lp) return std::nullopt;
    p.target_lp = std::move(*target_lp);
    p.source_lp = std::move(*source_lp);
    p.benefit = benefit_of(mv, p.target_lp.utility, p.source_lp.utility);
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
    // eval budget), grouped by seed, then screen and price each seed's
    // moves as one task of a parallel LP batch. The batch only reads the
    // step-3 state — every mutation happens in the apply phase below — so
    // it decomposes perfectly.
    std::vector<Move> candidates;
    std::vector<std::size_t> seed_begin;  // each seed's first candidate
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
        if (candidates.empty() || candidates.back().seed != &s)
          seed_begin.push_back(candidates.size());
        candidates.push_back({&s, from, to, eit->second.variant});
      }
    }
    seed_begin.push_back(candidates.size());

    // The screen. A running seed's move keeps the seed's allocation
    // reserved at the source while its state transfers, and such moves
    // almost never pay; value-only LPs rule out the ones that cannot
    // before they are priced exactly. A screened benefit differs from the
    // exact one by round-off, far below the margin, so no dropped move
    // could have paid. A fresh seed's moves are not screened. A value
    // depends only on its LP, never on which exact LPs were solved before
    // it, so the screen's decisions do not depend on the thread count.
    // A candidate's benefit stays 0 unless both its exact LPs are optimal.
    struct SeedOut {
      std::uint64_t solves = 0, screened = 0;
    };
    auto per_seed = pool.parallel_map<SeedOut>(
        seed_begin.size() - 1, [&](std::size_t k) {
          FARM_PROF_TASK("placement/step4_price");
          SeedOut out;
          std::span<Move> seed_moves(candidates.data() + seed_begin[k],
                                     seed_begin[k + 1] - seed_begin[k]);
          const Move& first = seed_moves.front();
          if (runs_at(*first.seed, first.from))
            seed_benefits(seed_moves, value_utility, &out.solves,
                          [&](Move& mv, double benefit) {
                            const double scale =
                                1 +
                                std::abs(utility_of(switch_utility, mv.to)) +
                                std::abs(utility_of(switch_utility, mv.from));
                            mv.screened = benefit <= -kScreenMargin * scale;
                            if (mv.screened) ++out.screened;
                          });
          seed_benefits(seed_moves, exact_utility, &out.solves,
                        [](Move& mv, double benefit) { mv.benefit = benefit; });
          return out;
        });

    std::uint64_t screened = 0;
    for (const SeedOut& out : per_seed) {
      result.lp_solves += out.solves;
      screened += out.screened;
    }
    FARM_PROF_COUNT("placement.migration.screened", screened);
    std::vector<Move> moves;
    for (const Move& mv : candidates)
      if (mv.benefit > kBenefitEps) moves.push_back(mv);
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
      reserved[mv.from] = p->source.reserved;
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
      for (std::size_t i = 0; i < p->source.pinned.size(); ++i) {
        auto& e = entries[p->source.pinned[i].seed->id];
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

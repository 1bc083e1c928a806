// Memoization of the pure LP sub-solves inside Algorithm 1.
//
// Both expensive layers of the heuristic are pure functions of their
// inputs: the per-variant minimal allocation (one 4-variable LP per
// variant) and the per-switch redistribution LP (capacity, α_poll,
// pinned (seed, variant) sequence, reserved residue). SolveMemo caches
// them under exact-content keys — every double is compared bitwise, so a
// cache hit returns the very value a fresh solve would compute and the
// overall placement stays bit-identical to an uncached run. It also
// caches the value-only redistribution LPs of step 4's screen under the
// same keys. Kept across re-solves (the Seeder owns one), it lets a
// re-solve after one seed event pay only for the LPs that event changed.
//
// Lifecycle: solve_heuristic (heuristic.h) calls prepare() before and
// finish() after every solve it runs with a memo, so one memo serves one
// solve at a time.
//
// Thread safety: lookups/inserts are mutex-protected and values are pure
// functions of their keys, so concurrent workers racing on the same key
// insert identical values — results never depend on scheduling. The one
// scheduling-dependent quantity is the miss count (two workers can miss
// the same key concurrently and both solve), so `lp_solves` under a memo
// reports cache misses, not logical LPs, and is excluded from the
// bit-identity contract.
//
// Seed tokens: switch-LP keys name each pinned seed by an interned token
// assigned in prepare() — one sequential pass over the problem before the
// parallel solve — so per-lookup key building is O(pinned) instead of
// re-serializing seed contents on every call. Token ids are never reused,
// so a switch-LP key built from an evicted token can never match a seed
// interned later.
//
// Eviction: every entry of the four tables (tokens, variant LPs, switch
// LPs, switch-LP values) records the last solve (generation) that touched
// it, and finish() evicts entries untouched for more than
// kKeepGenerations solves — the memo holds at most the content of the
// current solve and the two before.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "placement/model.h"
#include "placement/switch_lp.h"

namespace farm::placement {

class SolveMemo {
 public:
  struct VariantEntry {
    std::optional<ResourcesValue> min_alloc;
    double min_util = 0;
  };

  static constexpr std::uint64_t kKeepGenerations = 2;

  // Starts a solve: interns every seed of `problem` (token = exact content
  // of variants + polls). Runs sequentially before the parallel batches.
  void prepare(const PlacementProblem& problem);
  // Ends a solve: drops the per-solve pointer table (seed pointers dangle
  // once the problem is destroyed) and evicts stale entries.
  void finish();

  // Full invalidation: the next solve recomputes everything.
  void clear();

  // Memoized minimal_allocation + utility-at-minimum for one variant.
  // Increments *solves only on a miss.
  VariantEntry variant_info(const UtilityVariant& variant,
                            const ResourcesValue& cap, std::uint64_t* solves);

  // Memoized redistribute_on_switch. Every pinned seed must belong to the
  // problem passed to prepare().
  std::optional<SwitchLpResult> redistribute(const SwitchModel& sw,
                                             const std::vector<PinnedSeed>& seeds,
                                             const ResourcesValue& reserved,
                                             std::uint64_t* solves);

  // Memoized redistribution_value, under redistribute's key in a table of
  // its own: a value depends only on its key, never on the exact entries.
  std::optional<double> redistribution_value(
      const SwitchModel& sw, const std::vector<PinnedSeed>& seeds,
      const ResourcesValue& reserved, std::uint64_t* solves);

  std::uint64_t hits() const { return hits_; }
  // Entries across the token, variant-LP, switch-LP and value tables.
  std::size_t size() const;

  // Test hook: overwrite a cached switch-LP entry in place (all existing
  // keys keep matching but return this result). Lets tests exercise the
  // validate-and-repair pass, which never triggers by construction.
  void poison_switch_entries_for_testing(const SwitchLpResult& fake);

 private:
  template <typename T>
  struct Stamped {
    T value{};
    std::uint64_t generation = 0;
  };

  // One memoized lookup: a hit stamps the entry with the current
  // generation; a miss runs `solve` outside the lock and inserts.
  template <typename T, typename Solve>
  T lookup(std::unordered_map<std::string, Stamped<T>>& table,
           const std::string& key, Solve&& solve);

  // Serializes one switch LP's inputs into `key`.
  void put_switch_key(std::string& key, const SwitchModel& sw,
                      const std::vector<PinnedSeed>& seeds,
                      const ResourcesValue& reserved) const;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Stamped<std::uint64_t>> token_by_content_;
  std::unordered_map<const SeedModel*, std::uint64_t> token_by_seed_;
  std::unordered_map<std::string, Stamped<VariantEntry>> variant_cache_;
  std::unordered_map<std::string, Stamped<std::optional<SwitchLpResult>>>
      switch_cache_;
  std::unordered_map<std::string, Stamped<std::optional<double>>> value_cache_;
  std::uint64_t generation_ = 0;
  std::uint64_t next_token_ = 1;
  std::uint64_t hits_ = 0;
};

}  // namespace farm::placement

#include "placement/memo.h"

#include <cstring>

#include "telemetry/prof.h"
#include "util/check.h"

namespace farm::placement {

namespace {

// Exact-content serialization: doubles appended as raw bytes, so keys
// compare bitwise (no formatting round-trip, no tolerance).
void put_bytes(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}

void put_u64(std::string& out, std::uint64_t v) { put_bytes(out, &v, 8); }

void put_double(std::string& out, double v) { put_bytes(out, &v, 8); }

void put_resources(std::string& out, const ResourcesValue& r) {
  put_double(out, r.vCPU);
  put_double(out, r.RAM);
  put_double(out, r.TCAM);
  put_double(out, r.PCIe);
}

void put_poly(std::string& out, const Poly& p) {
  put_double(out, p.c0);
  for (double c : p.coeff) put_double(out, c);
}

void put_variant(std::string& out, const UtilityVariant& v) {
  put_u64(out, v.constraints.size());
  for (const auto& c : v.constraints) put_poly(out, c);
  put_u64(out, v.util_min_terms.size());
  for (const auto& t : v.util_min_terms) put_poly(out, t);
}

// The LP-relevant content of a seed: variants and polls. Ids, task names
// and candidate lists never reach the per-switch LP, so two seeds with
// equal content share a token (a pure perf win — keys only need to
// distinguish what the solver can observe).
void seed_lp_content(std::string& out, const SeedModel& s) {
  out.clear();
  put_u64(out, s.variants.size());
  for (const auto& v : s.variants) put_variant(out, v);
  put_u64(out, s.polls.size());
  for (const auto& p : s.polls) {
    put_u64(out, p.subject.size());
    out += p.subject;
    put_poly(out, p.inv_ival);
  }
}

}  // namespace

void SolveMemo::prepare(const PlacementProblem& problem) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++generation_;
  token_by_seed_.clear();
  token_by_seed_.reserve(problem.seeds.size());
  std::string content;  // reused across seeds; copied only on first sight
  for (const auto& s : problem.seeds) {
    seed_lp_content(content, s);
    auto [it, inserted] = token_by_content_.try_emplace(content);
    if (inserted) it->second.value = next_token_++;
    it->second.generation = generation_;
    token_by_seed_[&s] = it->second.value;
  }
}

void SolveMemo::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  token_by_seed_.clear();
  if (generation_ < kKeepGenerations) return;
  const std::uint64_t floor = generation_ - kKeepGenerations;
  auto stale = [floor](const auto& kv) { return kv.second.generation < floor; };
  std::erase_if(token_by_content_, stale);
  std::erase_if(variant_cache_, stale);
  std::erase_if(switch_cache_, stale);
  std::erase_if(value_cache_, stale);
}

void SolveMemo::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  token_by_content_.clear();
  token_by_seed_.clear();
  variant_cache_.clear();
  switch_cache_.clear();
  value_cache_.clear();
}

std::size_t SolveMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return token_by_content_.size() + variant_cache_.size() +
         switch_cache_.size() + value_cache_.size();
}

template <typename T, typename Solve>
T SolveMemo::lookup(std::unordered_map<std::string, Stamped<T>>& table,
                    const std::string& key, Solve&& solve) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = table.find(key);
    if (it != table.end()) {
      ++hits_;
      it->second.generation = generation_;
      FARM_PROF_COUNT("placement.memo.hits", 1);
      return it->second.value;
    }
  }
  T value = solve();
  FARM_PROF_COUNT("placement.memo.misses", 1);
  std::lock_guard<std::mutex> lock(mutex_);
  // First insert wins; a concurrent loser computed the identical value.
  auto it = table.try_emplace(key, Stamped<T>{std::move(value)}).first;
  it->second.generation = generation_;
  return it->second.value;
}

SolveMemo::VariantEntry SolveMemo::variant_info(const UtilityVariant& variant,
                                                const ResourcesValue& cap,
                                                std::uint64_t* solves) {
  // Reused per-thread buffer: key building is the hot path of a memoized
  // solve (hundreds of thousands of lookups per resolve), and a fresh
  // std::string per call spends more on allocator churn than the LP it
  // saves. The map copies the buffer only on a miss.
  thread_local std::string key;
  key.clear();
  put_variant(key, variant);
  put_resources(key, cap);
  return lookup(variant_cache_, key, [&] {
    VariantEntry entry;
    entry.min_alloc = minimal_allocation(variant, cap);
    if (entry.min_alloc) entry.min_util = variant.utility(*entry.min_alloc);
    if (solves) ++*solves;
    return entry;
  });
}

// Key building happens outside the mutex: token_by_seed_ is written only
// by prepare()/finish()/clear(), which solve_heuristic keeps sequential
// with the parallel batches, so concurrent workers only ever read it here.
void SolveMemo::put_switch_key(std::string& key, const SwitchModel& sw,
                               const std::vector<PinnedSeed>& seeds,
                               const ResourcesValue& reserved) const {
  key.clear();
  std::uint32_t node = sw.node;
  put_bytes(key, &node, 4);
  put_resources(key, sw.capacity);
  put_double(key, sw.alpha_poll);
  put_resources(key, reserved);
  put_u64(key, seeds.size());
  for (const auto& ps : seeds) {
    auto it = token_by_seed_.find(ps.seed);
    FARM_CHECK_MSG(it != token_by_seed_.end(),
                   "pinned seed was not interned by SolveMemo::prepare");
    put_u64(key, it->second);
    std::int32_t variant = ps.variant;
    put_bytes(key, &variant, 4);
  }
}

std::optional<SwitchLpResult> SolveMemo::redistribute(
    const SwitchModel& sw, const std::vector<PinnedSeed>& seeds,
    const ResourcesValue& reserved, std::uint64_t* solves) {
  thread_local std::string key;  // reused per thread (see variant_info)
  put_switch_key(key, sw, seeds, reserved);
  return lookup(switch_cache_, key, [&] {
    return redistribute_on_switch(sw, seeds, reserved, solves);
  });
}

std::optional<double> SolveMemo::redistribution_value(
    const SwitchModel& sw, const std::vector<PinnedSeed>& seeds,
    const ResourcesValue& reserved, std::uint64_t* solves) {
  thread_local std::string key;  // reused per thread (see variant_info)
  put_switch_key(key, sw, seeds, reserved);
  return lookup(value_cache_, key, [&] {
    return placement::redistribution_value(sw, seeds, reserved, solves);
  });
}

void SolveMemo::poison_switch_entries_for_testing(const SwitchLpResult& fake) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [_, entry] : switch_cache_)
    if (entry.value && entry.value->allocs.size() == fake.allocs.size())
      entry.value = fake;
}

}  // namespace farm::placement

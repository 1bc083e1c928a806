#include "net/sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <iterator>

#include "util/check.h"
#include "util/rng.h"

namespace farm::net {

CountMinSketch::CountMinSketch(int width, int depth, std::uint64_t hash_seed)
    : width_(width), depth_(depth), hash_seed_(hash_seed) {
  FARM_CHECK(width > 0 && depth > 0 && depth <= 16);
  row_seeds_.reserve(static_cast<std::size_t>(depth));
  for (int r = 0; r < depth; ++r)
    row_seeds_.push_back(
        util::derive_seed(hash_seed, static_cast<std::uint64_t>(r)));
  counters_.assign(static_cast<std::size_t>(width) *
                       static_cast<std::size_t>(depth),
                   0);
}

std::uint64_t CountMinSketch::cell_hash(std::string_view key, int row) const {
  return util::stable_hash64(key,
                             row_seeds_[static_cast<std::size_t>(row)]) %
         static_cast<std::uint64_t>(width_);
}

void CountMinSketch::add(std::string_view key, std::uint64_t count) {
  total_ += count;
  // Conservative update: raise each row's cell only to the new minimum —
  // tighter estimates than plain count-min at the same memory.
  std::uint64_t current = estimate(key);
  std::uint64_t target = current + count;
  for (int r = 0; r < depth_; ++r) {
    auto& cell = counters_[static_cast<std::size_t>(r) *
                               static_cast<std::size_t>(width_) +
                           cell_hash(key, r)];
    cell = std::max(cell, target);
  }
}

std::uint64_t CountMinSketch::estimate(std::string_view key) const {
  std::uint64_t best = ~0ull;
  for (int r = 0; r < depth_; ++r)
    best = std::min(best, counters_[static_cast<std::size_t>(r) *
                                        static_cast<std::size_t>(width_) +
                                    cell_hash(key, r)]);
  return best;
}

void CountMinSketch::clear() {
  std::fill(counters_.begin(), counters_.end(), 0);
  total_ = 0;
}

MisraGries::MisraGries(int capacity) : capacity_(capacity) {
  FARM_CHECK(capacity > 0);
}

void MisraGries::add(std::string_view key, std::uint64_t count) {
  total_ += count;
  counters_[std::string(key)] += count;
  if (counters_.size() <= static_cast<std::size_t>(capacity_)) return;
  // Drop every counter by the table minimum; at least one slot zeroes out,
  // so one reduction restores the capacity invariant after a single insert.
  std::uint64_t d = ~0ull;
  for (const auto& [_, c] : counters_) d = std::min(d, c);
  decremented_ += d;
  for (auto it = counters_.begin(); it != counters_.end();) {
    it->second -= d;
    it = it->second == 0 ? counters_.erase(it) : std::next(it);
  }
}

std::uint64_t MisraGries::estimate(std::string_view key) const {
  auto it = counters_.find(std::string(key));
  return it == counters_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> MisraGries::hitters(
    std::uint64_t min_count) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [k, c] : counters_)
    if (c >= min_count) out.emplace_back(k, c);
  return out;
}

void MisraGries::clear() {
  counters_.clear();
  total_ = 0;
  decremented_ = 0;
}

void MisraGries::merge(const MisraGries& other) {
  FARM_CHECK(capacity_ == other.capacity_);
  for (const auto& [k, c] : other.counters_) counters_[k] += c;
  total_ += other.total_;
  decremented_ += other.decremented_;
  if (counters_.size() <= static_cast<std::size_t>(capacity_)) return;
  // One reduction back to capacity: subtract the (capacity+1)-th largest
  // count from every counter (Agarwal et al., mergeable summaries).
  std::vector<std::uint64_t> counts;
  counts.reserve(counters_.size());
  for (const auto& [_, c] : counters_) counts.push_back(c);
  std::nth_element(counts.begin(),
                   counts.begin() + static_cast<std::ptrdiff_t>(capacity_),
                   counts.end(), std::greater<>());
  std::uint64_t d = counts[static_cast<std::size_t>(capacity_)];
  decremented_ += d;
  for (auto it = counters_.begin(); it != counters_.end();) {
    std::uint64_t c = it->second > d ? it->second - d : 0;
    it->second = c;
    it = c == 0 ? counters_.erase(it) : std::next(it);
  }
}

MisraGries MisraGries::restore(int capacity, std::uint64_t total,
                               std::uint64_t decremented,
                               std::map<std::string, std::uint64_t> counters) {
  MisraGries mg(capacity);
  FARM_CHECK(counters.size() <= static_cast<std::size_t>(capacity));
  mg.total_ = total;
  mg.decremented_ = decremented;
  mg.counters_ = std::move(counters);
  return mg;
}

std::size_t MisraGries::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& [k, _] : counters_)
    bytes += k.size() + sizeof(std::uint64_t);
  return bytes;
}

HyperLogLog::HyperLogLog(int precision, std::uint64_t hash_seed)
    : precision_(precision), hash_seed_(hash_seed) {
  FARM_CHECK(precision >= 4 && precision <= 16);
  registers_.assign(std::size_t{1} << precision, 0);
}

void HyperLogLog::add(std::string_view key) {
  std::uint64_t h = util::stable_hash64(key, util::derive_seed(hash_seed_, 0));
  std::size_t idx = h >> (64 - precision_);
  std::uint64_t rest = h << precision_;
  // Rank: position of the leftmost 1-bit in the remaining bits (1-based).
  int rank = rest == 0 ? (64 - precision_ + 1)
                       : std::countl_zero(rest) + 1;
  registers_[idx] =
      std::max(registers_[idx], static_cast<std::uint8_t>(rank));
}

double HyperLogLog::estimate_registers(const std::uint8_t* regs,
                                       std::size_t m_regs) {
  const double m = static_cast<double>(m_regs);
  double sum = 0;
  int zeros = 0;
  for (std::size_t i = 0; i < m_regs; ++i) {
    sum += std::ldexp(1.0, -regs[i]);
    zeros += regs[i] == 0;
  }
  double alpha = m == 16 ? 0.673
                 : m == 32 ? 0.697
                 : m == 64 ? 0.709
                           : 0.7213 / (1 + 1.079 / m);
  double raw = alpha * m * m / sum;
  // Small-range correction: linear counting.
  if (raw <= 2.5 * m && zeros > 0)
    return m * std::log(m / static_cast<double>(zeros));
  return raw;
}

double HyperLogLog::estimate() const {
  return estimate_registers(registers_.data(), registers_.size());
}

void HyperLogLog::clear() {
  std::fill(registers_.begin(), registers_.end(), 0);
}

// --- SketchSpec --------------------------------------------------------------

std::string to_string(SketchKind k) {
  switch (k) {
    case SketchKind::kCountMin:
      return "count-min";
    case SketchKind::kMisraGries:
      return "misra-gries";
    case SketchKind::kHyperLogLog:
      return "hyperloglog";
  }
  return "?";
}

std::size_t SketchSpec::cells() const {
  switch (kind) {
    case SketchKind::kCountMin:
      return static_cast<std::size_t>(width) * static_cast<std::size_t>(depth);
    case SketchKind::kMisraGries:
      return static_cast<std::size_t>(capacity);
    case SketchKind::kHyperLogLog:
      return std::size_t{1} << precision;
  }
  return 0;
}

std::size_t SketchSpec::state_bytes() const {
  switch (kind) {
    case SketchKind::kCountMin:
      return cells() * sizeof(std::uint64_t);
    case SketchKind::kMisraGries:
      // Key bytes are stream-dependent; 32 B covers a key plus its counter
      // for the flow-tuple keys the use cases track.
      return cells() * 32;
    case SketchKind::kHyperLogLog:
      return cells();  // one byte per register
  }
  return 0;
}

std::string SketchSpec::validate() const {
  switch (kind) {
    case SketchKind::kCountMin:
      if (width <= 0) return "count-min width must be positive";
      if (depth <= 0 || depth > 16)
        return "count-min depth must be in [1, 16]";
      return "";
    case SketchKind::kMisraGries:
      if (capacity <= 0) return "misra-gries capacity must be positive";
      if (shards <= 0) return "misra-gries shard count must be positive";
      if (capacity < shards)
        return "misra-gries capacity must be >= its " +
               std::to_string(shards) + " key shards";
      return "";
    case SketchKind::kHyperLogLog:
      if (precision < 4 || precision > 16)
        return "hyperloglog precision must be in [4, 16]";
      return "";
  }
  return "unknown sketch kind";
}

std::string SketchSpec::to_string() const {
  switch (kind) {
    case SketchKind::kCountMin:
      return "count-min(" + std::to_string(width) + "x" +
             std::to_string(depth) + ")";
    case SketchKind::kMisraGries:
      return "misra-gries(" + std::to_string(capacity) + "/" +
             std::to_string(shards) + ")";
    case SketchKind::kHyperLogLog:
      return "hyperloglog(p=" + std::to_string(precision) + ")";
  }
  return "?";
}

}  // namespace farm::net

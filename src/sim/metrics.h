// Experiment instrumentation: counters and streaming statistics.
//
// Benchmarks read these instead of scraping logs; everything is plain data
// with no global registry so concurrent experiments never interfere.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/check.h"

namespace farm::sim {

struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) { value += n; }
  void reset() { value = 0; }
};

// Streaming summary plus retained samples for exact percentiles. Retention
// is fine at experiment scale (≤ millions of samples).
class Stats {
 public:
  void record(double v);
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double sum() const { return sum_; }
  double min() const { return empty() ? 0 : min_; }
  double max() const { return empty() ? 0 : max_; }
  double mean() const { return empty() ? 0 : sum_ / count(); }
  double stddev() const;
  // p in [0,100]; nearest-rank on the sorted samples.
  double percentile(double p) const;
  // Number of samples strictly below x.
  std::size_t count_below(double x) const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Accumulates bytes with a label; used for link/collector load accounting.
struct ByteMeter {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  void add(std::uint64_t b) {
    bytes += b;
    ++messages;
  }
  double megabytes() const { return static_cast<double>(bytes) / 1e6; }
  void reset() { bytes = messages = 0; }
};

}  // namespace farm::sim

// Statistics the benchmark reports, kept apart from the driver so its own
// tests (bench_stats_test.cpp) can pin them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace farmbench {

// Median of a sample; the mean of the two middle values for even sizes.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Median over cycles of each cycle's mean. A cycle holds one of every op
// kind in the workload's mix, so its mean is an estimate over the same
// population every time — unlike a median over single ops, which lands on
// whichever mode of a mixed-cost population holds the middle rank.
inline double median_of_cycle_means(
    const std::vector<std::vector<double>>& cycles) {
  std::vector<double> means;
  for (const auto& c : cycles)
    if (!c.empty()) means.push_back(mean(c));
  return median(std::move(means));
}

// Nearest-rank p-th percentile, reported only when at least `min_beyond`
// samples lie above its rank; nullopt otherwise.
inline std::optional<double> percentile_with_tail(std::vector<double> v,
                                                  double p,
                                                  std::size_t min_beyond = 10) {
  if (v.empty() || p <= 0 || p >= 100) return std::nullopt;
  const std::size_t n = v.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0 || n - rank < min_beyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

// Samples a p-th percentile needs to have `min_beyond` of them above it.
inline std::size_t samples_for_percentile(double p,
                                          std::size_t min_beyond = 10) {
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(min_beyond) * 100.0 / (100.0 - p)));
}

// Host scaling. `ref_rate` is the reference kernel's rate measured beside
// the timed work, `nominal` the rate of the nominal host. On a host running
// faster than nominal a time grows and a rate shrinks, and vice versa, so
// both read as they would on the nominal host.
//
// FARM's work slows more than the small reference kernel when the shared
// memory system is loaded: over 60 runs on a 4-vCPU KVM guest, log(raw
// time) against log(reference rate) fitted slopes of 1.1 to 2.1 per metric
// (README.md, "Scaling"). The ratio is therefore raised to this exponent.
inline constexpr double kHostExponent = 1.5;

inline double scale_time(double raw, double ref_rate, double nominal) {
  return raw * std::pow(ref_rate / nominal, kHostExponent);
}
inline double scale_rate(double raw, double ref_rate, double nominal) {
  return raw * std::pow(nominal / ref_rate, kHostExponent);
}

// Metric names: start with a letter or digit, at most 64 of [A-Za-z0-9_.-].
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// Units: at most 16 of [A-Za-z0-9_/%.-].
inline bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

// 32-bit FNV-1a, fed incrementally.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 16777619u;
    }
  }
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<unsigned char>(v >> (8 * i));
      h_ *= 16777619u;
    }
  }
  std::uint32_t value() const { return h_; }

 private:
  std::uint32_t h_ = 2166136261u;
};

}  // namespace farmbench

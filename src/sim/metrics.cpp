#include "sim/metrics.h"

#include <algorithm>
#include <cmath>

namespace farm::sim {

void Stats::record(double v) {
  samples_.push_back(v);
  sorted_ = false;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

double Stats::stddev() const {
  if (samples_.size() < 2) return 0;
  double m = mean(), acc = 0;
  for (double v : samples_) acc += (v - m) * (v - m);
  return std::sqrt(acc / (samples_.size() - 1));
}

double Stats::percentile(double p) const {
  p = std::clamp(p, 0.0, 100.0);
  if (empty()) return 0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  // Exact extremes: nearest-rank rounding must not let float error at the
  // endpoints pick a neighbor of the true min/max.
  if (p <= 0) return samples_.front();
  if (p >= 100) return samples_.back();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  if (rank == 0) rank = 1;
  if (rank > samples_.size()) rank = samples_.size();
  return samples_[rank - 1];
}

std::size_t Stats::count_below(double x) const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return static_cast<std::size_t>(
      std::lower_bound(samples_.begin(), samples_.end(), x) -
      samples_.begin());
}


}  // namespace farm::sim

#include "telemetry/registry.h"

#include <algorithm>
#include <cmath>

namespace farm::telemetry {

std::string to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

namespace {

// Component [begin, end) of a dot-separated name; returns false when done.
bool next_component(std::string_view s, std::size_t& pos,
                    std::string_view& out) {
  if (pos > s.size()) return false;
  std::size_t dot = s.find('.', pos);
  if (dot == std::string_view::npos) {
    out = s.substr(pos);
    pos = s.size() + 1;
  } else {
    out = s.substr(pos, dot - pos);
    pos = dot + 1;
  }
  return true;
}

}  // namespace

bool label_matches(std::string_view name, std::string_view pattern) {
  std::size_t np = 0, pp = 0;
  std::string_view nc, pc;
  for (;;) {
    bool have_p = next_component(pattern, pp, pc);
    bool have_n = next_component(name, np, nc);
    if (!have_p) return !have_n;
    if (pc == "**") return true;  // trailing rest-match
    if (!have_n) return false;
    if (pc != "*" && pc != nc) return false;
  }
}

std::string_view label_component(std::string_view name, int i) {
  std::size_t pos = 0;
  std::string_view c;
  for (int k = 0; next_component(name, pos, c); ++k)
    if (k == i) return c;
  return {};
}

HistogramSpec HistogramSpec::default_latency() {
  return exponential(1e-6, 4.0, 13);
}

HistogramSpec HistogramSpec::exponential(double first, double factor,
                                         int count) {
  FARM_CHECK(first > 0 && factor > 1 && count > 0);
  HistogramSpec s;
  double b = first;
  for (int i = 0; i < count; ++i, b *= factor) s.bounds.push_back(b);
  return s;
}

HistogramSpec HistogramSpec::linear(double first, double step, int count) {
  FARM_CHECK(step > 0 && count > 0);
  HistogramSpec s;
  double b = first;
  for (int i = 0; i < count; ++i, b += step) s.bounds.push_back(b);
  return s;
}

Histogram::Histogram(HistogramSpec spec) : bounds_(std::move(spec.bounds)) {
  if (bounds_.empty()) bounds_ = HistogramSpec::default_latency().bounds;
  FARM_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                     std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                         bounds_.end(),
                 "histogram bounds must be strictly increasing");
  counts_.assign(bounds_.size() + 1, 0);
}

std::size_t Histogram::bucket_index(double v) const {
  // First bucket whose upper edge is >= v (inclusive upper edges).
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
}

void Histogram::observe(double v) {
  ++counts_[bucket_index(v)];
  ++total_;
  sum_ += v;
}

double Histogram::percentile(double p) const {
  if (total_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(total_)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= rank) return i < bounds_.size() ? bounds_[i] : bounds_.back();
  }
  return bounds_.back();
}

MetricId Registry::counter(std::string_view name) {
  auto id = try_register(name, MetricKind::kCounter);
  FARM_CHECK_MSG(id.has_value(), "metric name registered with another kind");
  return *id;
}

MetricId Registry::gauge(std::string_view name) {
  auto id = try_register(name, MetricKind::kGauge);
  FARM_CHECK_MSG(id.has_value(), "metric name registered with another kind");
  return *id;
}

MetricId Registry::histogram(std::string_view name, HistogramSpec spec) {
  auto id = try_register(name, MetricKind::kHistogram, std::move(spec));
  FARM_CHECK_MSG(id.has_value(), "metric name registered with another kind");
  return *id;
}

std::optional<MetricId> Registry::try_register(std::string_view name,
                                               MetricKind kind,
                                               HistogramSpec spec) {
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    if (metrics_[it->second].kind != kind) return std::nullopt;
    return it->second;
  }
  auto id = static_cast<MetricId>(metrics_.size());
  Metric m;
  m.name = std::string(name);
  m.kind = kind;
  if (kind == MetricKind::kHistogram)
    m.hist = std::make_unique<Histogram>(std::move(spec));
  metrics_.push_back(std::move(m));
  by_name_.emplace(metrics_.back().name, id);
  return id;
}

MetricId Registry::find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kInvalidMetric : it->second;
}

void Registry::observe(MetricId id, double v) {
  Metric& m = at(id);
  if (m.hist) m.hist->observe(v);
  m.value += v;
}

double Registry::value(MetricId id) const { return at(id).value; }

}  // namespace farm::telemetry

// Granary metrics registry: named counters, gauges, and fixed-bucket
// histograms with hierarchical dot-separated labels (soil.sw12.poll_bytes).
//
// Registration is a hash lookup and happens once per metric (components
// cache the returned MetricId); updates are an array index plus an add —
// cheap enough for per-packet paths. The registry holds only the *live*
// aggregates; the full update history lives in the columnar EventStore so
// queries can slice by time window (see store.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/check.h"

namespace farm::telemetry {

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = 0xFFFFFFFFu;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

std::string to_string(MetricKind kind);

// Hierarchical label matching on dot-separated components: '*' matches
// exactly one component, a trailing '**' matches any (possibly empty) rest.
//   label_matches("soil.sw12.poll_bytes", "soil.*.poll_bytes") == true
//   label_matches("soil.sw12.poll_bytes", "soil.**") == true
bool label_matches(std::string_view name, std::string_view pattern);
// The i-th dot-separated component, or "" when out of range.
std::string_view label_component(std::string_view name, int i);

// Fixed-bucket histogram. `bounds` are strictly increasing inclusive upper
// edges (Prometheus "le" semantics: value v lands in the first bucket with
// v <= bound); values above the last bound go to the implicit overflow
// bucket, so counts() has bounds.size() + 1 entries.
struct HistogramSpec {
  std::vector<double> bounds;
  // 1e-6 s .. ~16 s in powers of 4 — a sane default for latency seconds.
  static HistogramSpec default_latency();
  static HistogramSpec exponential(double first, double factor, int count);
  static HistogramSpec linear(double first, double step, int count);
};

class Histogram {
 public:
  explicit Histogram(HistogramSpec spec);

  void observe(double v);
  // Index into counts() the value would land in (last = overflow).
  std::size_t bucket_index(double v) const;

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t total() const { return total_; }
  double sum() const { return sum_; }
  // Upper edge of the bucket holding the p-th percentile observation
  // (nearest-rank over buckets); p is clamped to [0, 100]. The overflow
  // bucket reports the largest finite bound.
  double percentile(double p) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0;
};

class Registry {
 public:
  // Find-or-create; re-registering an existing name with the same kind
  // returns the original id, a kind mismatch is a fatal labeling bug.
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  MetricId histogram(std::string_view name, HistogramSpec spec = {});

  // Non-fatal variant: nullopt when `name` is taken by a different kind.
  std::optional<MetricId> try_register(std::string_view name, MetricKind kind,
                                       HistogramSpec spec = {});
  // kInvalidMetric when unregistered.
  MetricId find(std::string_view name) const;
  std::size_t size() const { return metrics_.size(); }
  const std::string& name(MetricId id) const { return at(id).name; }
  MetricKind kind(MetricId id) const { return at(id).kind; }

  // --- Live aggregates -------------------------------------------------------
  void add(MetricId id, double delta) { at(id).value += delta; }
  void set(MetricId id, double v) { at(id).value = v; }
  void observe(MetricId id, double v);
  // Counter/gauge current value (histograms: total observation sum).
  double value(MetricId id) const;

 private:
  struct Metric {
    std::string name;
    MetricKind kind;
    double value = 0;
    std::unique_ptr<Histogram> hist;
  };
  Metric& at(MetricId id) {
    FARM_DCHECK(id < metrics_.size());
    return metrics_[id];
  }
  const Metric& at(MetricId id) const {
    FARM_DCHECK(id < metrics_.size());
    return metrics_[id];
  }

  std::vector<Metric> metrics_;
  std::unordered_map<std::string, MetricId> by_name_;
};

}  // namespace farm::telemetry

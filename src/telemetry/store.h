// Granary columnar event store + query API.
//
// Every metric update is appended as one row across parallel column arrays
// (timestamp, metric id, kind, value) — the struct-of-arrays layout keeps
// scans cache-friendly and the per-event footprint fixed. The store is one
// bounded ring: when full, the oldest row is overwritten, which is exactly
// the retention policy the flight recorder wants ("the last N events before
// the crash"). What the ring keeps depends only on its capacity and the
// append stream, never on the host's thread count, and timestamps are sim
// virtual time only, so stores from two same-seed runs are identical.
//
// Query is the composable filter + aggregate over one ring (metric/label
// pattern/kind/time window). Label patterns and group-by components are
// resolved once per MetricId per query (not once per row), and ring scans
// run as two branch-free segments instead of a per-row `%` (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/registry.h"
#include "util/time.h"

namespace farm::telemetry {

using util::TimePoint;

enum class EventKind : std::uint8_t {
  kAdd,      // counter increment (value = delta)
  kSet,      // gauge update (value = new level)
  kObserve,  // histogram observation (value = sample)
  kMark,     // point event (value = free payload, e.g. a fault target id)
};

std::string to_string(EventKind kind);

struct EventRow {
  TimePoint at;
  MetricId metric = kInvalidMetric;
  EventKind kind = EventKind::kMark;
  double value = 0;
};

class EventStore {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 18;  // 256k events

  explicit EventStore(std::size_t capacity = kDefaultCapacity);

  void append(TimePoint at, MetricId metric, EventKind kind, double value);

  // Rows currently retained (≤ capacity).
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  // Lifetime appends, including rows the ring has since overwritten.
  std::uint64_t total_appended() const { return appended_; }
  std::uint64_t dropped() const { return appended_ - size_; }

  // Logical index: 0 = oldest retained row, size()-1 = newest.
  EventRow row(std::size_t i) const;

  // Branch-free scan, oldest → newest: the retained rows as at most two
  // contiguous column segments ([head, capacity) then [0, head) once the
  // ring has wrapped), so hot aggregate loops never pay the per-row `%` of
  // row(). fn is fn(at_ns, metric, kind, value) -> bool; returning false
  // stops the scan (and makes scan() return false).
  template <typename Fn>
  bool scan(Fn&& fn) const {
    auto run = [&](std::size_t b, std::size_t e) {
      for (std::size_t s = b; s < e; ++s)
        if (!fn(at_ns_[s], metric_[s], kind_[s], value_[s])) return false;
      return true;
    };
    if (size_ < capacity_) return run(0, size_);  // unwrapped: head_ == 0
    return run(head_, capacity_) && run(0, head_);
  }

 private:
  std::size_t slot(std::size_t i) const { return (head_ + i) % capacity_; }

  std::size_t capacity_;
  std::size_t head_ = 0;  // physical index of the oldest row
  std::size_t size_ = 0;
  std::uint64_t appended_ = 0;
  // Parallel columns, all `size_` long (physically `capacity_` once full).
  std::vector<std::int64_t> at_ns_;
  std::vector<MetricId> metric_;
  std::vector<EventKind> kind_;
  std::vector<double> value_;
};

// Composable filter + aggregate over an EventStore. Cheap value type —
// build one per question:
//   double b = Query(store, reg).label("bus.up.bytes").since(t0).sum();
class Query {
 public:
  Query(const EventStore& store, const Registry& registry)
      : store_(&store), registry_(&registry) {}

  Query& metric(MetricId id) {
    metric_ = id;
    return *this;
  }
  // Label pattern per label_matches(): exact name, or wildcards like
  // "soil.*.poll_timeouts" / "chaos.**".
  Query& label(std::string pattern) {
    pattern_ = std::move(pattern);
    return *this;
  }
  Query& kind(EventKind k) {
    kind_ = k;
    return *this;
  }
  Query& since(TimePoint t0) {  // at >= t0
    since_ = t0;
    return *this;
  }
  Query& until(TimePoint t1) {  // at <= t1
    until_ = t1;
    return *this;
  }
  Query& window(TimePoint t0, TimePoint t1) { return since(t0).until(t1); }

  // --- Aggregates ------------------------------------------------------------
  std::size_t count() const;
  // Sum of matching row values, added in append order.
  double sum() const;
  // Sum of the *live registry aggregates* of every metric matching the
  // metric/label filters: counter totals, gauge levels, histogram sample
  // sums. Unlike sum(), this survives ring eviction — use it for lifetime
  // totals on hot metrics; time-window filters do not apply.
  double total() const;
  double min() const;
  double max() const;
  double mean() const;
  // Nearest-rank percentile over matching row values; p clamped to [0,100].
  double percentile(double p) const;
  std::optional<EventRow> first() const;

  // Group rows by the i-th dot-component of their metric name (e.g. the
  // switch in "soil.<switch>.poll_bytes" is component 1) and aggregate.
  std::map<std::string, double> sum_by_component(int i) const;

  // Matching rows oldest → newest.
  void for_each(const std::function<void(const EventRow&)>& fn) const;

 private:
  struct Resolved;
  // Calls fn(row) for every matching row oldest → newest; fn returns false
  // to stop early.
  template <typename Fn>
  void scan(Fn&& fn) const;

  const EventStore* store_;
  const Registry* registry_;
  std::optional<MetricId> metric_;
  std::optional<std::string> pattern_;
  std::optional<EventKind> kind_;
  std::optional<TimePoint> since_;
  std::optional<TimePoint> until_;
};

}  // namespace farm::telemetry

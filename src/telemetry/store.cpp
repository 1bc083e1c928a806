#include "telemetry/store.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace farm::telemetry {

std::string to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kAdd: return "add";
    case EventKind::kSet: return "set";
    case EventKind::kObserve: return "observe";
    case EventKind::kMark: return "mark";
  }
  return "?";
}

EventStore::EventStore(std::size_t capacity) : capacity_(capacity) {
  FARM_CHECK(capacity_ > 0);
  at_ns_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void EventStore::append(TimePoint at, MetricId metric, EventKind kind,
                        double value) {
  ++appended_;
  if (size_ < capacity_) {
    at_ns_.push_back(at.count_ns());
    metric_.push_back(metric);
    kind_.push_back(kind);
    value_.push_back(value);
    ++size_;
    return;
  }
  // Full: overwrite the oldest row and advance the ring head.
  at_ns_[head_] = at.count_ns();
  metric_[head_] = metric;
  kind_[head_] = kind;
  value_[head_] = value;
  head_ = (head_ + 1) % capacity_;
}

EventRow EventStore::row(std::size_t i) const {
  FARM_DCHECK(i < size_);
  std::size_t s = slot(i);
  return {TimePoint::from_ns(at_ns_[s]), metric_[s], kind_[s], value_[s]};
}

// --- Query -------------------------------------------------------------------

// The per-query resolved filter: metric admission memoized per MetricId
// over the registry (label patterns are matched once per metric, never per
// row) and the time window as raw ns.
struct Query::Resolved {
  explicit Resolved(const Query& q) : store(q.store_), registry(q.registry_) {
    has_kind = q.kind_.has_value();
    if (has_kind) kind = *q.kind_;
    since_ns = q.since_ ? q.since_->count_ns()
                        : std::numeric_limits<std::int64_t>::min();
    until_ns = q.until_ ? q.until_->count_ns()
                        : std::numeric_limits<std::int64_t>::max();
    all = !q.metric_ && !q.pattern_;
    if (!all) {
      ok.assign(registry->size(), 0);
      for (std::size_t id = 0; id < ok.size(); ++id) {
        auto mid = static_cast<MetricId>(id);
        if (q.metric_ && mid != *q.metric_) continue;
        if (q.pattern_ && !label_matches(registry->name(mid), *q.pattern_))
          continue;
        ok[id] = 1;
      }
    }
  }

  bool admit(MetricId m, EventKind k, std::int64_t at_ns) const {
    if (has_kind && k != kind) return false;
    if (at_ns < since_ns || at_ns > until_ns) return false;
    return all || (m < ok.size() && ok[m] != 0);
  }

  // fn(row) on every matching row, oldest → newest; fn returns false to
  // stop.
  template <typename Fn>
  void scan(Fn&& fn) const {
    store->scan([&](std::int64_t at, MetricId m, EventKind k, double v) {
      return !admit(m, k, at) || fn(EventRow{TimePoint::from_ns(at), m, k, v});
    });
  }

  // Group-by memo: the i-th label component of every admissible metric,
  // resolved once per query instead of once per row.
  std::vector<std::string> components(int comp) const {
    std::vector<std::string> out(all ? registry->size() : ok.size());
    for (std::size_t id = 0; id < out.size(); ++id)
      if (all || ok[id] != 0)
        out[id] = std::string(
            label_component(registry->name(static_cast<MetricId>(id)), comp));
    return out;
  }

  const EventStore* store;
  const Registry* registry;
  bool all = false;
  std::vector<std::uint8_t> ok;  // indexed by MetricId; unused when `all`
  bool has_kind = false;
  EventKind kind = EventKind::kMark;
  std::int64_t since_ns = 0;
  std::int64_t until_ns = 0;
};

std::size_t Query::count() const {
  std::size_t n = 0;
  Resolved(*this).scan([&](const EventRow&) {
    ++n;
    return true;
  });
  return n;
}

double Query::sum() const {
  double s = 0;
  Resolved(*this).scan([&](const EventRow& r) {
    s += r.value;
    return true;
  });
  return s;
}

double Query::total() const {
  // Registry aggregates only — eviction-independent by construction.
  double s = 0;
  for (MetricId id = 0; id < registry_->size(); ++id) {
    if (metric_ && id != *metric_) continue;
    if (pattern_ && !label_matches(registry_->name(id), *pattern_)) continue;
    s += registry_->value(id);
  }
  return s;
}

double Query::min() const {
  std::optional<double> lo;
  Resolved(*this).scan([&](const EventRow& r) {
    if (!lo || r.value < *lo) lo = r.value;
    return true;
  });
  return lo.value_or(0);
}

double Query::max() const {
  std::optional<double> hi;
  Resolved(*this).scan([&](const EventRow& r) {
    if (!hi || r.value > *hi) hi = r.value;
    return true;
  });
  return hi.value_or(0);
}

double Query::mean() const {
  double s = 0;
  std::size_t n = 0;
  Resolved(*this).scan([&](const EventRow& r) {
    s += r.value;
    ++n;
    return true;
  });
  return n == 0 ? 0 : s / static_cast<double>(n);
}

double Query::percentile(double p) const {
  std::vector<double> vals;
  Resolved(*this).scan([&](const EventRow& r) {
    vals.push_back(r.value);
    return true;
  });
  if (vals.empty()) return 0;
  std::sort(vals.begin(), vals.end());
  p = std::clamp(p, 0.0, 100.0);
  if (p <= 0) return vals.front();
  if (p >= 100) return vals.back();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(vals.size())));
  if (rank == 0) rank = 1;
  return vals[rank - 1];
}

std::optional<EventRow> Query::first() const {
  std::optional<EventRow> out;
  Resolved(*this).scan([&](const EventRow& r) {
    out = r;
    return false;
  });
  return out;
}

void Query::for_each(const std::function<void(const EventRow&)>& fn) const {
  Resolved(*this).scan([&](const EventRow& r) {
    fn(r);
    return true;
  });
}

std::map<std::string, double> Query::sum_by_component(int i) const {
  const Resolved res(*this);
  const std::vector<std::string> comp = res.components(i);
  std::map<std::string, double> out;
  res.scan([&](const EventRow& r) {
    out[r.metric < comp.size() ? comp[r.metric] : std::string()] += r.value;
    return true;
  });
  return out;
}

}  // namespace farm::telemetry

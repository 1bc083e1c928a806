// Granary Hub: one telemetry domain per experiment.
//
// The Hub bundles the metrics registry, the columnar event store, and the
// span tracer, and stamps every record with *virtual* time read from a
// clock the owner installs (sim::Engine binds its own clock, so each
// Engine is an isolated telemetry domain — concurrent experiments never
// interfere). A component's counters in its engine's Hub are the one
// record of its counts, so a metric name names one component instance
// per engine.
#pragma once

#include <functional>
#include <memory>
#include <string_view>

#include "telemetry/registry.h"
#include "telemetry/store.h"
#include "telemetry/trace.h"

namespace farm::telemetry {

class FlightRecorder;

struct HubConfig {
  std::size_t store_capacity = EventStore::kDefaultCapacity;
  std::size_t track_capacity = Tracer::kDefaultTrackCapacity;
  // Retired: the Hub keeps one event ring. Kept only so callers that still
  // pin it to 1 compile; the Hub checks it is 0 or 1 and reads it nowhere
  // else.
  std::size_t silo_shards = 0;
};

class Hub {
 public:
  explicit Hub(HubConfig config = {});
  ~Hub();
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  // Virtual-time source; unset, records stamp at origin (plain unit tests).
  void set_clock(std::function<TimePoint()> clock) {
    clock_ = std::move(clock);
  }
  TimePoint now() const { return clock_ ? clock_() : TimePoint::origin(); }

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  EventStore& events() { return store_; }
  const EventStore& events() const { return store_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  FlightRecorder& flight() { return *flight_; }

  // --- Registration (delegates; components cache the ids) --------------------
  MetricId counter(std::string_view name) { return registry_.counter(name); }
  MetricId gauge(std::string_view name) { return registry_.gauge(name); }
  MetricId histogram(std::string_view name, HistogramSpec spec = {}) {
    return registry_.histogram(name, std::move(spec));
  }
  TrackId track(std::string_view name) { return tracer_.track(name); }

  // --- Hot-path mutations ----------------------------------------------------
  void add(MetricId id, double delta = 1) {
    registry_.add(id, delta);
    store_.append(now(), id, EventKind::kAdd, delta);
  }
  void set(MetricId id, double value) {
    registry_.set(id, value);
    store_.append(now(), id, EventKind::kSet, value);
  }
  void observe(MetricId id, double value) {
    registry_.observe(id, value);
    store_.append(now(), id, EventKind::kObserve, value);
  }
  // Registry-only increment: bumps the live aggregate without appending an
  // event row. For ultra-hot paths (per engine event, per packet) whose
  // totals matter but whose individual updates would flood the ring and
  // evict sparser, more interesting events.
  void count(MetricId id, double delta = 1) { registry_.add(id, delta); }
  // Registry-only gauge update — the row-less analogue of count() for
  // levels that change on every request (e.g. the PCIe busy horizon).
  void level(MetricId id, double value) { registry_.set(id, value); }
  // Point event only — no live aggregate behind it.
  void mark(MetricId id, double value = 0) {
    store_.append(now(), id, EventKind::kMark, value);
  }

  SpanId begin_span(TrackId t, std::string_view name) {
    return tracer_.begin(t, name, now());
  }
  void end_span(TrackId t, SpanId id) { tracer_.end(t, id, now()); }

  Query query() const { return Query(store_, registry_); }
  // A counter's live total as an integer: the read side of components
  // whose count accessors report the Hub's record. Integer deltas sum
  // exactly in the registry's double below 2^53.
  std::uint64_t tally(MetricId id) const {
    return static_cast<std::uint64_t>(registry_.value(id));
  }

 private:
  std::function<TimePoint()> clock_;
  Registry registry_;
  EventStore store_;
  Tracer tracer_;
  std::unique_ptr<FlightRecorder> flight_;
};

// RAII span for scopes that cover a contiguous stretch of virtual time
// (e.g. around a run_for slice or a solver call). Async intervals use
// begin_span/end_span directly across their callbacks.
class ScopedSpan {
 public:
  ScopedSpan(Hub& hub, TrackId track, std::string_view name)
      : hub_(hub), track_(track), id_(hub.begin_span(track, name)) {}
  ~ScopedSpan() { hub_.end_span(track_, id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Hub& hub_;
  TrackId track_;
  SpanId id_;
};

// Dumps the tail of a Hub's telemetry (last N metric events + retained
// spans) as chrome://tracing JSON when something goes wrong. Arm it with a
// path; chaos faults and FARM_CHECK failures then trigger a dump
// automatically (see farm/chaos.cpp and arm_on_check_failure).
class FlightRecorder {
 public:
  explicit FlightRecorder(Hub& hub) : hub_(hub) {}
  ~FlightRecorder();

  void arm(std::string path, std::size_t last_events = 4096);
  void disarm();
  bool armed() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  // Also dump when a FARM_CHECK fails (process-global hook; the most
  // recently armed recorder wins).
  void arm_on_check_failure();

  // Writes the flight record to `path()` (no-op when disarmed). Returns
  // true when a dump was written.
  bool trigger(std::string_view reason);
  std::uint64_t dumps() const { return dumps_; }

 private:
  Hub& hub_;
  std::string path_;
  std::size_t last_events_ = 4096;
  std::uint64_t dumps_ = 0;
  bool check_hooked_ = false;
};

}  // namespace farm::telemetry

// Discrete-event simulation engine.
//
// Every FARM experiment runs inside one Engine: switches, links, seeds,
// collectors, and harvesters all schedule callbacks on the shared virtual
// clock. Determinism rule: events at the same instant execute in
// (time, sequence-number) order, so a run is a pure function of its inputs.
//
// Callbacks live in a slot table recycled through a free list; the heap
// holds only (time, sequence, slot, generation). An EventId is a handle
// naming a (generation, slot) pair, not a sequence number: firing or
// cancelling an event bumps its slot's generation, so every id issued for
// it goes stale at once and cancel() is an index and a compare (DESIGN.md
// §18).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "telemetry/hub.h"
#include "util/check.h"
#include "util/time.h"

namespace farm::sim {

using util::Duration;
using util::TimePoint;

// (generation << 32) | slot; generations start at 1, so no issued id is
// kInvalidEvent.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  TimePoint now() const { return now_; }

  // Schedules cb at absolute virtual time t (>= now). Returns a handle
  // usable with cancel().
  EventId schedule_at(TimePoint t, Callback cb);
  // Schedules cb after the given non-negative delay.
  EventId schedule_after(Duration d, Callback cb);
  // Cancels a pending event; cancelling an already-fired or cancelled event
  // is a harmless no-op (components often race their own timers), even
  // once its slot holds a newer event.
  void cancel(EventId id);

  // Executes the next pending event; returns false when the queue is empty.
  bool step();
  // Runs events with timestamp <= t, then advances the clock to exactly t.
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now_ + d); }
  // Drains the whole queue (use only for workloads that terminate).
  void run();

  std::size_t pending_events() const { return live_; }
  // Heap entries including cancelled tombstones awaiting compaction.
  // Bounded: compaction keeps this within a small factor of
  // pending_events(), so cancel/reschedule-heavy components (periodic
  // tasks re-arming every tick) cannot grow the engine without bound.
  std::size_t heap_size() const { return heap_.size(); }
  std::uint64_t executed_events() const { return executed_; }

  // The engine's Granary telemetry domain (one Hub per Engine, so
  // concurrent experiments never share metrics). Created on first use with
  // its clock bound to this engine's virtual time; engines that never call
  // this pay only a null-pointer check per executed event.
  telemetry::Hub& telemetry();
  // Creates the Hub with an explicit config (event-ring and span-track
  // capacity). Must run before the first telemetry() call — the Hub's
  // store geometry is fixed at construction.
  telemetry::Hub& configure_telemetry(telemetry::HubConfig config);

 private:
  // 24 bytes: the heap moves these, never the callbacks.
  struct Entry {
    TimePoint at;
    std::uint64_t seq;  // scheduling order; breaks same-instant ties
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    Callback cb;
    // The generation of the event the slot holds, or of the next one it
    // will hold while it sits on the free list.
    std::uint32_t gen = 1;
  };

  // A heap entry is live iff its slot still holds its generation.
  bool live(const Entry& e) const { return slots_[e.slot].gen == e.gen; }
  // Retires the event in `slot` (fired or cancelled): its ids go stale and
  // the slot returns to the free list. Returns the callback.
  Callback release(std::uint32_t slot);
  // Drops cancelled tombstones once they dominate the heap; amortized O(1)
  // per cancel (each compaction at least halves the heap and is paid for
  // by the cancels that created the tombstones).
  void maybe_compact();

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;  // scheduled, not yet fired or cancelled
  std::unique_ptr<telemetry::Hub> telemetry_;
  telemetry::MetricId events_metric_ = telemetry::kInvalidMetric;
  // Min-heap by (time, seq) maintained with the std heap algorithms; an
  // explicit vector (instead of std::priority_queue) so compaction can
  // filter tombstones in place. Entries whose slot moved on to a newer
  // generation are tombstones skipped by step().
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

// Fires a callback at a fixed period until stopped. The period can be
// changed on the fly (seeds adapt their polling rate at runtime, §III).
class PeriodicTask {
 public:
  // cb runs first after one full period (not immediately at start()).
  PeriodicTask(Engine& engine, Duration period, Engine::Callback cb);
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();
  void stop();
  // Takes effect from the next firing onward.
  void set_period(Duration period);
  Duration period() const { return period_; }
  bool running() const { return active_; }

 private:
  void arm();

  Engine& engine_;
  Duration period_;
  Engine::Callback cb_;
  EventId pending_ = kInvalidEvent;
  bool active_ = false;
};

}  // namespace farm::sim

// The event queue as it ran before callbacks moved into a slot table, kept
// as the differential oracle of engine_oracle_test.cpp: a min-heap of
// (time, id, callback) whose ids are sequence numbers, plus a hash set of
// the ids still live. Cancelling erases the id from the set and leaves a
// tombstone in the heap; compaction drops tombstones once they outnumber
// live entries 3:1. Only the time and id types come from src/; the
// reference has no telemetry Hub.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "sim/engine.h"

namespace farm::sim::ref {

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  TimePoint now() const { return now_; }

  EventId schedule_at(TimePoint t, Callback cb);
  EventId schedule_after(Duration d, Callback cb);
  void cancel(EventId id);

  bool step();
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now_ + d); }
  void run();

  std::size_t pending_events() const { return live_.size(); }
  std::size_t heap_size() const { return heap_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  struct Event {
    TimePoint at;
    EventId id;
    Callback cb;
    // Min-heap by (time, id); id breaks ties deterministically in
    // scheduling order.
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : id > o.id;
    }
  };

  void maybe_compact();

  TimePoint now_;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Event> heap_;
  // Scheduled-but-not-yet-executed (and not cancelled) event ids. Heap
  // entries not in this set are tombstones skipped by step().
  std::unordered_set<EventId> live_;
};

}  // namespace farm::sim::ref

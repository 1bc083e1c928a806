#include "engine_reference.h"

#include <algorithm>

namespace farm::sim::ref {

namespace {
// std::push_heap & co. build a max-heap under the comparator; Event
// defines operator> by (time, id), so greater-than yields a min-heap.
struct EventAfter {
  bool operator()(const auto& a, const auto& b) const { return a > b; }
};
}  // namespace

EventId Engine::schedule_at(TimePoint t, Callback cb) {
  FARM_CHECK_MSG(t >= now_, "cannot schedule events in the past");
  EventId id = next_id_++;
  heap_.push_back(Event{t, id, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  live_.insert(id);
  return id;
}

EventId Engine::schedule_after(Duration d, Callback cb) {
  FARM_CHECK_MSG(d >= Duration{}, "negative delay");
  return schedule_at(now_ + d, std::move(cb));
}

void Engine::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  live_.erase(id);
  maybe_compact();
}

void Engine::maybe_compact() {
  if (heap_.size() < 64 || heap_.size() < 4 * live_.size()) return;
  std::erase_if(heap_, [&](const Event& e) { return !live_.count(e.id); });
  std::make_heap(heap_.begin(), heap_.end(), EventAfter{});
}

bool Engine::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    if (!live_.erase(ev.id)) continue;  // cancelled tombstone
    now_ = ev.at;
    ++executed_;
    ev.cb();
    return true;
  }
  return false;
}

void Engine::run_until(TimePoint t) {
  while (!heap_.empty()) {
    // Drop tombstones first: a cancelled entry at the front with an early
    // timestamp must not admit a live event scheduled beyond t.
    while (!heap_.empty() && !live_.count(heap_.front().id)) {
      std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
      heap_.pop_back();
    }
    if (heap_.empty() || heap_.front().at > t) break;
    if (!step()) break;
  }
  if (now_ < t) now_ = t;
}

void Engine::run() {
  while (step()) {
  }
}

}  // namespace farm::sim::ref

#include "sim/engine.h"

#include <algorithm>

namespace farm::sim {

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
  // Lazy deletion leaves a tombstone per cancel; components that cancel and
  // reschedule a timer every tick would otherwise grow heap_ without bound
  // while pending_events() (sized from live_) stays flat. Compact once
  // tombstones outnumber live entries 3:1 (and the heap is big enough for
  // the rebuild to matter).
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
    if (telemetry_) telemetry_->count(events_metric_);
    ev.cb();
    return true;
  }
  return false;
}

telemetry::Hub& Engine::telemetry() {
  if (!telemetry_) configure_telemetry({});
  return *telemetry_;
}

telemetry::Hub& Engine::configure_telemetry(telemetry::HubConfig config) {
  FARM_CHECK(!telemetry_);  // store geometry is fixed at construction
  telemetry_ = std::make_unique<telemetry::Hub>(config);
  telemetry_->set_clock([this] { return now_; });
  events_metric_ = telemetry_->counter("sim.engine.events");
  return *telemetry_;
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

PeriodicTask::PeriodicTask(Engine& engine, Duration period,
                           Engine::Callback cb)
    : engine_(engine), period_(period), cb_(std::move(cb)) {
  FARM_CHECK_MSG(period_.is_positive(), "period must be > 0");
}

void PeriodicTask::start() {
  if (active_) return;
  active_ = true;
  arm();
}

void PeriodicTask::stop() {
  active_ = false;
  engine_.cancel(pending_);
  pending_ = kInvalidEvent;
}

void PeriodicTask::set_period(Duration period) {
  FARM_CHECK_MSG(period.is_positive(), "period must be > 0");
  period_ = period;
  if (active_) {
    // Re-arm so the new rate applies immediately rather than after one
    // stale interval; seeds shrinking their polling period rely on this.
    engine_.cancel(pending_);
    arm();
  }
}

void PeriodicTask::arm() {
  pending_ = engine_.schedule_after(period_, [this] {
    pending_ = kInvalidEvent;
    cb_();
    // cb may have called stop() (active_ now false) or set_period()
    // (which already re-armed); only arm when neither happened.
    if (active_ && pending_ == kInvalidEvent) arm();
  });
}

}  // namespace farm::sim

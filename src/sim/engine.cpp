#include "sim/engine.h"

#include <algorithm>

namespace farm::sim {

namespace {
// std::push_heap & co. build a max-heap under the comparator; ordering by
// "fires later" yields a min-heap by (time, seq).
struct FiresLater {
  bool operator()(const auto& a, const auto& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};
}  // namespace

EventId Engine::schedule_at(TimePoint t, Callback cb) {
  FARM_CHECK_MSG(t >= now_, "cannot schedule events in the past");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  heap_.push_back(Entry{t, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
  ++live_;
  return (EventId{s.gen} << 32) | slot;
}

EventId Engine::schedule_after(Duration d, Callback cb) {
  FARM_CHECK_MSG(d >= Duration{}, "negative delay");
  return schedule_at(now_ + d, std::move(cb));
}

Engine::Callback Engine::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (++s.gen == 0) s.gen = 1;  // keep issued ids distinct from kInvalidEvent
  free_.push_back(slot);
  --live_;
  return std::move(s.cb);
}

void Engine::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const auto slot = static_cast<std::uint32_t>(id);
  // The callback is destroyed after the engine is consistent again, so a
  // destructor that schedules or cancels sees a well-formed queue.
  Callback dropped;
  if (slot < slots_.size() && slots_[slot].gen == id >> 32)
    dropped = release(slot);
  maybe_compact();
}

void Engine::maybe_compact() {
  // Lazy deletion leaves a tombstone per cancel; components that cancel and
  // reschedule a timer every tick would otherwise grow heap_ without bound
  // while pending_events() stays flat. Compact once tombstones outnumber
  // live entries 3:1 (and the heap is big enough for the rebuild to
  // matter).
  if (heap_.size() < 64 || heap_.size() < 4 * live_) return;
  std::erase_if(heap_, [&](const Entry& e) { return !live(e); });
  std::make_heap(heap_.begin(), heap_.end(), FiresLater{});
}

bool Engine::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
    const Entry e = heap_.back();
    heap_.pop_back();
    if (!live(e)) continue;  // cancelled tombstone
    now_ = e.at;
    ++executed_;
    if (telemetry_) telemetry_->count(events_metric_);
    // Released before it runs: the callback may cancel its own (now
    // stale) id or schedule into the slot it vacated.
    release(e.slot)();
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
    while (!heap_.empty() && !live(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
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

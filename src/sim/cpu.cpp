#include "sim/cpu.h"

#include <algorithm>

namespace farm::sim {

CpuModel::CpuModel(Engine& engine, int cores, Duration context_switch_cost)
    : engine_(engine),
      cores_(cores),
      ctx_cost_(context_switch_cost),
      core_free_(static_cast<std::size_t>(cores), TimePoint::origin()),
      core_last_task_(static_cast<std::size_t>(cores), 0) {
  FARM_CHECK(cores > 0);
}

void CpuModel::submit(TaskId task, Duration demand,
                      std::function<void()> on_done) {
  FARM_CHECK(demand >= Duration{});
  // Earliest-free core; ties broken by index for determinism.
  std::size_t best = 0;
  for (std::size_t i = 1; i < core_free_.size(); ++i)
    if (core_free_[i] < core_free_[best]) best = i;

  TimePoint start = std::max(engine_.now(), core_free_[best]);
  Duration cost = demand;
  if (core_last_task_[best] != task) {
    cost += ctx_cost_;
    ++switches_;
  }
  core_last_task_[best] = task;
  core_free_[best] = start + cost;
  busy_ += cost;

  engine_.schedule_at(core_free_[best],
                      on_done ? std::move(on_done) : Engine::Callback([] {}));
}

Duration CpuModel::busy_time() const {
  Duration pending{};
  TimePoint now = engine_.now();
  for (TimePoint f : core_free_)
    if (f > now) pending += f - now;
  return busy_ - pending;
}

double CpuModel::load_percent(TimePoint window_start,
                              Duration busy_at_start) const {
  Duration window = engine_.now() - window_start;
  if (!window.is_positive()) return 0.0;
  Duration used = busy_time() - busy_at_start;
  return 100.0 * used.seconds() / window.seconds();
}

}  // namespace farm::sim

// Multi-core switch-CPU model.
//
// Seeds, the soil, and baseline agents run on the switch management CPU
// (§II-B: Xeon 8-core / Atom quad-core class). The model is a work-
// conserving multi-server queue: jobs carry a service demand, cores pick
// the earliest-free slot, and a context-switch penalty is charged whenever
// a core switches between different logical tasks. That penalty is what
// makes many collocated CPU-heavy seeds degrade (Fig. 6c) while partitioned
// execution (Fig. 6d) scales.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.h"

namespace farm::sim {

using TaskId = std::uint64_t;

class CpuModel {
 public:
  CpuModel(Engine& engine, int cores, Duration context_switch_cost);

  // Enqueues a job with the given pure service demand on behalf of logical
  // task `task`. on_done (optional) fires at virtual completion time; the
  // completion is one event either way.
  void submit(TaskId task, Duration demand,
              std::function<void()> on_done = {});

  // Core-busy time accrued up to `now` (sums across cores; context
  // switches count as busy — they burn cycles). Work that is admitted but
  // scheduled to execute in the future is NOT included, so oversubscribed
  // CPUs report at most cores×100% load, with the excess showing up as
  // queueing delay instead.
  Duration busy_time() const;
  // Load over a window in percent of ONE core, i.e. a saturated 4-core CPU
  // reports 400%. Matches how the paper plots CPU load (Fig. 6 reaches
  // 350% on quad cores).
  double load_percent(TimePoint window_start, Duration busy_at_start) const;

  int cores() const { return cores_; }
  std::uint64_t context_switches() const { return switches_; }

 private:
  Engine& engine_;
  int cores_;
  Duration ctx_cost_;
  Duration busy_;
  std::vector<TimePoint> core_free_;
  std::vector<TaskId> core_last_task_;
  std::uint64_t switches_ = 0;
};

}  // namespace farm::sim

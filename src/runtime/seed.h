// Seed: a deployed state-machine instance executing on a switch (§II-B a).
//
// The seed event loop — machine environment, current state, handler
// dispatch, deferred transitions — is almanac::SeedCore. A Seed is its
// soil host: it binds the external variables the seeder resolved, sends
// every switch/network effect through its soil, re-arms the soil's
// triggers when the state changes, and counts handler runs and transits
// in the telemetry hub.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "almanac/seed_core.h"
#include "runtime/machine_image.h"
#include "sim/cpu.h"
#include "telemetry/hub.h"
#include "util/time.h"

namespace farm::runtime {

class Soil;

using almanac::ResourcesValue;
using almanac::SendTarget;
using almanac::StatsValue;
using almanac::Value;

// Globally unique seed identity.
struct SeedId {
  std::string task;
  std::string machine;
  int index = 0;  // among the machine's seeds in the task

  std::string to_string() const {
    return task + "/" + machine + "#" + std::to_string(index);
  }
  friend bool operator==(const SeedId&, const SeedId&) = default;
};

// The one SeedId hash: the soil's resident index and the seeder's seed
// index both key on it.
struct SeedIdHash {
  std::size_t operator()(const SeedId& id) const {
    std::size_t h = std::hash<std::string>{}(id.task);
    h = h * 31 + std::hash<std::string>{}(id.machine);
    return h * 31 + std::hash<int>{}(id.index);
  }
};

// Serializable seed state for migration: the machine variables, the
// current state name and that state's locals (the paper transfers exactly
// this, §V-B).
struct SeedSnapshot {
  std::string current_state;
  std::unordered_map<std::string, Value> machine_vars;
  std::unordered_map<std::string, Value> state_locals;
  // Approximate wire size, for migration cost accounting.
  std::size_t wire_bytes() const;
};

class Seed : public almanac::SeedCore {
 public:
  // `externals` binds the machine's external variables (§III-A a).
  Seed(SeedId id, std::shared_ptr<MachineImage> image, Soil& soil,
       const std::unordered_map<std::string, Value>& externals);
  ~Seed() override;

  const SeedId& id() const { return id_; }
  // The resources its soil granted (kReferenceAlloc until the soil sets
  // them at deploy, before start()); res() reads them.
  const ResourcesValue& allocation() const { return allocation_; }
  // The seed's logical task on the switch CPU model: a hash of its id, with
  // bit 15 set so it never meets the soil's own task id.
  sim::TaskId cpu_task() const { return cpu_task_; }

  // Enters the initial state (or the snapshot's state) and registers
  // triggers with the soil.
  void start();
  void start_from(const SeedSnapshot& snapshot);

  SeedSnapshot snapshot() const;

  // Trigger variables whose events the *current* state listens to, with
  // their current specs — the soil polls exactly these.
  struct ActiveTrigger {
    std::string var;
    almanac::TriggerType type;
    almanac::TriggerSpec spec;
  };
  std::vector<ActiveTrigger> active_triggers() const;

  // --- SeedHost ------------------------------------------------------------
  ResourcesValue resources() override;
  void add_tcam_rule(const asic::TcamRule& rule) override;
  void remove_tcam_rule(const net::Filter& pattern) override;
  std::optional<asic::TcamRule> get_tcam_rule(
      const net::Filter& pattern) override;
  void send(const Value& payload, const SendTarget& target) override;
  void exec(const std::string& command) override;
  void trigger_updated(const std::string& var) override;
  std::int64_t switch_id() override;
  std::int64_t now_ms() override;
  void log(const std::string& message) override;

 private:
  void handler_ran() override;
  void handler_failed(Site site, const almanac::EvalError& error) override;
  void state_entered() override;
  void chain_cut() override;

  // The soil grants allocations (Soil::deploy, Soil::set_allocation) and
  // assigns the ordinal.
  friend class Soil;

  SeedId id_;
  // id_'s ordinal in its soil's resident table (Soil::deploy sets it).
  std::uint32_t ordinal_ = 0;
  sim::TaskId cpu_task_;
  ResourcesValue allocation_ = almanac::kReferenceAlloc;
  std::shared_ptr<MachineImage> image_;  // keeps the machine alive
  Soil& soil_;
  // Granary: fleet-wide seed activity (shared counters — seeds are too
  // numerous for per-instance metric names).
  telemetry::Hub* tel_ = nullptr;
  telemetry::MetricId m_handlers_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_transits_ = telemetry::kInvalidMetric;
};

}  // namespace farm::runtime

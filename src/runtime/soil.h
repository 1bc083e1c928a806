// Soil: the per-switch M&M foundation layer (§II-B b).
//
// The soil manages seed execution, tracks switch resources, and owns all
// communication between seeds and the ASIC (PCIe polling, packet probes)
// as well as with remote components. Its two headline optimizations are
// modeled faithfully because the evaluation measures them:
//   - Polling aggregation: registrations sharing a polling subject are
//     served by one PCIe transfer per group period instead of one each
//     (Fig. 8/9). Aggregation costs soil CPU, which is only significant
//     when seeds run as processes (fan-out copies) rather than threads.
//   - Seed communication: thread-seeds receive events over a shared buffer
//     (flat ~2 µs); process-seeds over a gRPC-like channel whose dispatch
//     cost grows with the number of deployed seeds (Fig. 10).
//
// Polled statistics are resolved against the chassis: interface subjects
// read port counters; flow subjects read TCAM rule counters, installing a
// monitoring-region count rule on demand (the iSTAMP-style TCAM split).
//
// The soil counts its polls into the engine's Granary Hub
// (`soil.<switch>.{poll_requests,poll_deliveries,poll_timeouts,
// poll_retries,polls_abandoned}`); the poll accessors read those counters
// back. It keeps only the two figures the Hub has no record of, as running
// totals: the delivery latency sum and count (Fig. 10 plots their mean)
// and how many wakeups started less than 10 ms after their due time, out
// of how many (Fig. 6's accuracy).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "asic/switch.h"
#include "runtime/seed.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace farm::runtime {

struct SoilConfig {
  // Threads in the soil process (shared buffer) vs separate processes
  // (RPC); §V-A b / §VI-E.
  bool seeds_as_threads = true;
  bool aggregate_polls = true;
};

// Messaging fabric the soil hands remote sends to; implemented by the FARM
// system (seeder/harvester side).
class SoilNetwork {
 public:
  virtual ~SoilNetwork() = default;
  virtual void to_harvester(const SeedId& from, net::NodeId from_switch,
                            const Value& payload) = 0;
  virtual void to_machine(const SeedId& from, net::NodeId from_switch,
                          const std::string& machine,
                          std::optional<std::int64_t> dst_switch,
                          const Value& payload) = 0;
};

class Soil {
 public:
  Soil(sim::Engine& engine, asic::SwitchChassis& chassis, SoilConfig config,
       SoilNetwork* network = nullptr);
  ~Soil();
  Soil(const Soil&) = delete;
  Soil& operator=(const Soil&) = delete;

  sim::Engine& engine() { return engine_; }
  asic::SwitchChassis& chassis() { return chassis_; }
  const SoilConfig& config() const { return config_; }
  net::NodeId node() const { return chassis_.node(); }

  // Whether the underlying switch is powered (heartbeat probes read this).
  bool online() const { return chassis_.powered(); }
  // Switch power failure: every seed, registration, poll group, and
  // allocation vanishes — the process state is gone. The soil object itself
  // survives and accepts deploys again after the chassis reboots.
  void crash();

  // --- Seed lifecycle ------------------------------------------------------
  // A seed deployed without an allocation gets almanac::kReferenceAlloc.
  Seed* deploy(SeedId id, std::shared_ptr<MachineImage> image,
               std::unordered_map<std::string, Value> externals,
               std::optional<ResourcesValue> allocation = std::nullopt,
               const SeedSnapshot* snapshot = nullptr);
  bool undeploy(const SeedId& id);
  // The seed deployed under `id`, or null. Control plane only: deliveries
  // in flight resolve their seed by ordinal (below).
  Seed* find(const SeedId& id);
  std::vector<Seed*> seeds();
  std::size_t seed_count() const { return seeds_.size(); }

  // --- Resources -----------------------------------------------------------
  // The seed's grant (Seed::allocation()).
  ResourcesValue allocation(const Seed& seed) const;
  // Reallocates and fires the seed's realloc event (placement optimizer).
  void set_allocation(const SeedId& id, const ResourcesValue& alloc);
  ResourcesValue total_capacity() const;

  // --- Called by seeds -----------------------------------------------------
  void seed_send(Seed& seed, const Value& payload, const SendTarget& target);
  void seed_exec(Seed& seed, const std::string& command);
  void refresh_triggers(Seed& seed);
  void add_monitor_rule(Seed& seed, asic::TcamRule rule);
  void remove_monitor_rule(const net::Filter& pattern);
  std::optional<asic::TcamRule> get_monitor_rule(const net::Filter& pattern);

  // --- Inbound messages (from the message bus) ------------------------------
  void deliver_to_seed(const SeedId& id, const Value& payload,
                       bool from_harvester, const std::string& from_machine);

  // Cost of one exec() invocation (the ML task); replaceable per workload.
  void set_exec_cost(std::function<sim::Duration(const std::string&)> fn) {
    exec_cost_ = std::move(fn);
  }

  // --- Metrics -------------------------------------------------------------
  // Mean latency, in seconds, from poll data availability to its arrival
  // at the seed (comm + IPC; handler queueing shows in lateness instead).
  double mean_delivery_latency() const;
  std::uint64_t poll_requests_issued() const {
    return tel_->tally(m_poll_requests_);
  }
  std::uint64_t poll_deliveries() const {
    return tel_->tally(m_poll_deliveries_);
  }
  // The polling accuracy of Fig. 6: the fraction of wakeups whose handler
  // started less than 10 ms after its nominal due time. Wakeups are poll
  // deliveries *and* time-trigger firings; 1 before the first one.
  double polling_accuracy() const;
  // Poll transfers that timed out on a lossy/saturated PCIe channel, the
  // retries issued for them, and the polls abandoned after the retry budget.
  std::uint64_t poll_timeouts() const { return tel_->tally(m_poll_timeouts_); }
  std::uint64_t poll_retries() const { return tel_->tally(m_poll_retries_); }
  std::uint64_t polls_abandoned() const {
    return tel_->tally(m_polls_abandoned_);
  }

 private:
  struct Registration {
    Seed* seed;
    std::string var;
    almanac::TriggerType type;
    double ival_seconds;
    net::Filter what;
    std::string subject_key;          // canonical aggregation key
    sim::TimePoint next_due;
    asic::SamplerId sampler = 0;      // probe registrations
    sim::EventId timer = sim::kInvalidEvent;  // time + unaggregated polls
    // Probe reservoir: uniform choice among the packets that arrived during
    // the current gating interval (the probe period is only a lower bound,
    // §III-A a — sampling must stay unbiased across flows).
    net::PacketHeader reservoir;
    std::uint64_t reservoir_seen = 0;
  };

  // drop_orphaned_poll_rules: also remove auto-installed "soil-poll" count
  // rules left without any polling registration (undeploy path only; state
  // transitions keep them so counts accumulate across visits).
  void clear_registrations(Seed& seed, bool drop_orphaned_poll_rules);
  void register_trigger(Seed& seed, const Seed::ActiveTrigger& trig);
  // Resolves the counters a filter polls; may install count rules.
  std::vector<almanac::StatEntry> resolve_subject(const net::Filter& what);
  void schedule_poll(Registration& reg);
  void fire_poll_group(const std::string& subject_key);
  void deliver_poll_to(std::uint32_t ordinal, const std::string& var,
                       const StatsValue& stats, sim::TimePoint due);
  // The ordinal of `id` in the resident table, assigned on first sight.
  std::uint32_t intern(const SeedId& id);
  // PCIe poll transfer with timeout-and-retry: a lost completion (injected
  // message loss, or a crashed chassis) re-issues the request up to
  // kMaxPollRetries times before abandoning this round. `span` is the
  // telemetry poll-round span, closed on final completion or abandonment.
  void pcie_poll_request(int entries, std::function<void()> on_complete,
                         int retries_left,
                         telemetry::SpanId span = telemetry::kInvalidSpan);
  sim::Duration comm_latency() const;
  // Accounts one wakeup (poll delivery or time firing) due at `due` that
  // starts its handler now.
  void note_wakeup(sim::TimePoint due);
  // Re-publishes the monitoring-region TCAM fill fraction gauge; called
  // wherever monitoring rules are installed or removed.
  void publish_tcam_occupancy();

  sim::Engine& engine_;
  asic::SwitchChassis& chassis_;
  SoilConfig config_;
  SoilNetwork* network_;
  std::function<sim::Duration(const std::string&)> exec_cost_;

  std::vector<std::unique_ptr<Seed>> seeds_;
  // Resident table: each SeedId this soil has hosted or been sent a
  // message for keeps one ordinal for the soil's lifetime, and
  // resident_[ordinal] is the seed deployed under that id now, or null.
  // A delivery carries the ordinal and resolves it when it lands, which
  // gives the seed find(id) would return then: a soil holds at most one
  // seed per id, and a seed redeployed under its id takes its ordinal.
  std::unordered_map<SeedId, std::uint32_t, SeedIdHash> ordinals_;
  std::vector<Seed*> resident_;
  // Registrations keyed by owning seed (raw pointer identity).
  std::vector<std::unique_ptr<Registration>> regs_;
  // Aggregated poll groups: subject key → periodic task.
  struct PollGroup {
    std::unique_ptr<sim::PeriodicTask> task;
    double period_seconds = 0;
  };
  std::unordered_map<std::string, PollGroup> groups_;

  util::Rng rng_;
  // Granary: per-soil metrics under "soil.<switch>.*" and poll-round spans
  // (PCIe issue → stats resolved) on the "soil.<switch>" track.
  telemetry::Hub* tel_ = nullptr;
  telemetry::TrackId track_ = 0;
  telemetry::MetricId m_poll_requests_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_poll_timeouts_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_poll_retries_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_polls_abandoned_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_poll_deliveries_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_poll_lateness_ms_ = telemetry::kInvalidMetric;
  // "tcam.<switch>.mon_frac": monitoring-partition occupancy in [0, 1],
  // updated on rule install/remove so Scarecrow can alert before the
  // region fills and rules start dropping.
  telemetry::MetricId m_tcam_mon_frac_ = telemetry::kInvalidMetric;
  double delivery_latency_sum_ = 0;  // seconds
  std::uint64_t delivery_latency_count_ = 0;
  std::uint64_t wakeups_ = 0;
  std::uint64_t timely_wakeups_ = 0;  // started < 10 ms after due
};

}  // namespace farm::runtime

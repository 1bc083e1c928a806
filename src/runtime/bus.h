// Message bus: the control-plane fabric between soils, harvesters, and the
// seeder (the role RabbitMQ plays in the paper's implementation, §V-A c).
//
// Every message crosses the out-of-band management network: the bus charges
// the control-path latency plus serialization time at the control link
// bandwidth, and meters bytes and messages per direction into the engine's
// Granary Hub (`bus.{up,down}.{bytes,msgs}`) — the network-load numbers of
// Fig. 4 read these counters, and so do the metering accessors below.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/soil.h"

namespace farm::runtime {

class Harvester;

class MessageBus : public SoilNetwork {
 public:
  explicit MessageBus(sim::Engine& engine);

  // Registration. Soils/harvesters must outlive the bus or deregister.
  void attach_soil(Soil& soil);
  void detach_soil(net::NodeId node);
  void attach_harvester(const std::string& task, Harvester& harvester);
  void detach_harvester(const std::string& task);

  // --- SoilNetwork (seed-originated traffic) -------------------------------
  void to_harvester(const SeedId& from, net::NodeId from_switch,
                    const Value& payload) override;
  void to_machine(const SeedId& from, net::NodeId from_switch,
                  const std::string& machine,
                  std::optional<std::int64_t> dst_switch,
                  const Value& payload) override;

  // --- Harvester/seeder-originated traffic ---------------------------------
  // Liveness probe over the management network: the callback fires with
  // true after a round trip iff the soil's switch is powered; a dead switch
  // never answers (the caller's timeout decides it is gone). Works on
  // detached soils too — the seeder keeps probing failed switches to spot
  // reboots.
  void ping(Soil& soil, std::function<void(bool alive)> cb);
  void harvester_to_seed(const std::string& task, const SeedId& to,
                         const Value& payload);
  // All seeds of (task, machine) everywhere; machine empty = every seed of
  // the task.
  void harvester_broadcast(const std::string& task, const std::string& machine,
                           const Value& payload);

  // Seed lookup across all attached soils.
  std::vector<std::pair<Soil*, Seed*>> seeds_of(
      const std::string& task, const std::string& machine) const;

  // --- Metering ------------------------------------------------------------
  // Bytes and messages that crossed the management network toward central
  // components (the collector-side load FARM minimizes), and bytes sent
  // away from them.
  std::uint64_t upstream_bytes() const { return tel_->tally(m_up_bytes_); }
  std::uint64_t upstream_messages() const { return tel_->tally(m_up_msgs_); }
  std::uint64_t downstream_bytes() const {
    return tel_->tally(m_down_bytes_);
  }

 private:
  sim::Duration control_delay(std::size_t bytes) const;

  void meter_up(std::size_t bytes);
  void meter_down(std::size_t bytes);

  sim::Engine& engine_;
  std::unordered_map<net::NodeId, Soil*> soils_;
  std::unordered_map<std::string, Harvester*> harvesters_;
  // bus.{up,down}.{bytes,msgs}: their event rows let benchmarks slice
  // management-network load by time window (Fig. 4).
  telemetry::Hub* tel_ = nullptr;
  telemetry::MetricId m_up_bytes_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_up_msgs_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_down_bytes_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_down_msgs_ = telemetry::kInvalidMetric;
  // Delivery lag (control-path latency + serialization) of the most recent
  // upstream report, in ms — the bus-lag signal Scarecrow's SLO watches.
  // Registry-only (level): updated per report without an event row.
  telemetry::MetricId m_up_lag_ = telemetry::kInvalidMetric;
};

// Per-task centralized coordinator (§II-C a). Subclasses implement the
// global reaction logic; the base class handles transport.
class Harvester {
 public:
  Harvester(sim::Engine& engine, std::string task)
      : engine_(engine), task_(std::move(task)) {}
  virtual ~Harvester() = default;

  const std::string& task() const { return task_; }
  sim::Engine& engine() { return engine_; }

  // Called by the bus when a seed reports in.
  virtual void on_seed_message(const SeedId& from, net::NodeId from_switch,
                               const Value& payload) = 0;

  // Bus-facing entry: meters the report as "harvester.<task>.reports" before
  // dispatching, stamped at *receipt* time — responsiveness queries (Tab. IV)
  // care about when the harvester learned, not when the seed sent.
  void handle_seed_message(const SeedId& from, net::NodeId from_switch,
                           const Value& payload) {
    if (m_reports_ == telemetry::kInvalidMetric)
      m_reports_ = engine_.telemetry().counter("harvester." + task_ + ".reports");
    engine_.telemetry().add(m_reports_);
    on_seed_message(from, from_switch, payload);
  }

  void bind(MessageBus& bus) { bus_ = &bus; }
  void send_to_seed(const SeedId& to, const Value& payload) {
    if (bus_) bus_->harvester_to_seed(task_, to, payload);
  }
  void broadcast(const std::string& machine, const Value& payload) {
    if (bus_) bus_->harvester_broadcast(task_, machine, payload);
  }

 private:
  sim::Engine& engine_;
  std::string task_;
  MessageBus* bus_ = nullptr;
  telemetry::MetricId m_reports_ = telemetry::kInvalidMetric;
};

}  // namespace farm::runtime

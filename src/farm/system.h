// FarmSystem — the public facade tying everything together.
//
// One object owns the virtual-time engine, a spine-leaf fabric of simulated
// switches (ASIC + management CPU + PCIe), a soil per switch, the message
// bus, and the seeder. Examples and benchmarks against FARM go through this
// API:
//
//   core::FarmSystem farm;
//   farm.bus().attach_harvester("hh", my_harvester);
//   farm.install_task({.name = "hh", .source = kHeavyHitterAlm, ...});
//   farm.load_traffic(schedule);
//   farm.run_for(sim::Duration::sec(10));
#pragma once

#include <memory>
#include <ostream>

#include "asic/driver.h"
#include "farm/scarecrow.h"
#include "farm/seeder.h"

namespace farm::core {

struct FarmSystemConfig {
  net::SpineLeafSpec topology{.spines = 4, .leaves = 16, .hosts_per_leaf = 8};
  asic::SwitchConfig switch_config;
  runtime::SoilConfig soil_config;
  SeederOptions seeder;
  // Scarecrow SLO alerting + health scoring over this system's telemetry.
  ScarecrowConfig scarecrow;
  // Hub geometry (event-ring and span-track capacity).
  telemetry::HubConfig hub;
};

class FarmSystem {
 public:
  explicit FarmSystem(FarmSystemConfig config = {});
  FarmSystem(const FarmSystem&) = delete;
  FarmSystem& operator=(const FarmSystem&) = delete;

  sim::Engine& engine() { return engine_; }
  telemetry::Hub& telemetry() { return engine_.telemetry(); }
  const net::SpineLeaf& fabric() const { return fabric_; }
  const net::Topology& topology() const { return fabric_.topo; }
  // Mutable view for fault injection (link/node liveness flips).
  net::Topology& topology_mut() { return fabric_.topo; }
  const net::SdnController& controller() const { return controller_; }
  MessageBus& bus() { return bus_; }
  Seeder& seeder() { return *seeder_; }
  Scarecrow& scarecrow() { return *scarecrow_; }
  const Scarecrow& scarecrow() const { return *scarecrow_; }

  // End-of-run "farm report": telemetry totals, alert table, health tree.
  // Runs one final alert evaluation first so the snapshot is current.
  void write_farm_report(std::ostream& os);
  void write_farm_report_json(std::ostream& os);

  Soil& soil(net::NodeId node);
  asic::SwitchChassis& chassis(net::NodeId node);
  std::vector<Soil*> soils();
  // Per-node chassis pointers (hosts = nullptr), for TrafficDriver reuse.
  const std::vector<asic::SwitchChassis*>& chassis_by_node() const {
    return by_node_;
  }

  std::vector<SeedId> install_task(const TaskSpec& spec) {
    return seeder_->install_task(spec);
  }

  // Replaces the running traffic with the given schedule.
  void load_traffic(net::FlowSchedule schedule);
  asic::TrafficDriver* traffic() { return driver_.get(); }

  void run_for(sim::Duration d) { engine_.run_for(d); }

 private:
  FarmSystemConfig config_;
  sim::Engine engine_;
  net::SpineLeaf fabric_;
  net::SdnController controller_;
  std::vector<std::unique_ptr<asic::SwitchChassis>> chassis_;
  std::vector<asic::SwitchChassis*> by_node_;
  std::vector<std::unique_ptr<Soil>> soils_;
  MessageBus bus_;
  std::unique_ptr<Seeder> seeder_;
  std::unique_ptr<Scarecrow> scarecrow_;
  std::unique_ptr<asic::TrafficDriver> driver_;
};

}  // namespace farm::core

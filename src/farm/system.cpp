#include "farm/system.h"

namespace farm::core {

namespace {

// Fix the Hub geometry before any member touches engine.telemetry()
// lazily (MessageBus does, in the init list below) — configure_telemetry
// refuses to run once a default Hub exists.
sim::Engine& with_telemetry(sim::Engine& engine,
                            const FarmSystemConfig& config) {
  engine.configure_telemetry(config.hub);
  return engine;
}

}  // namespace

FarmSystem::FarmSystem(FarmSystemConfig config)
    : config_(config),
      fabric_(net::build_spine_leaf(config.topology)),
      controller_(fabric_.topo),
      bus_(with_telemetry(engine_, config_)) {
  by_node_.assign(fabric_.topo.node_count(), nullptr);
  std::vector<Soil*> soil_ptrs;
  for (net::NodeId n : fabric_.topo.switches()) {
    asic::SwitchConfig sc = config_.switch_config;
    sc.n_ifaces = std::max<int>(
        sc.n_ifaces, static_cast<int>(fabric_.topo.neighbors(n).size()));
    chassis_.push_back(std::make_unique<asic::SwitchChassis>(
        engine_, n, fabric_.topo.node(n).name, sc, n));
    by_node_[n] = chassis_.back().get();
    soils_.push_back(std::make_unique<Soil>(engine_, *chassis_.back(),
                                            config_.soil_config, &bus_));
    soil_ptrs.push_back(soils_.back().get());
  }
  seeder_ = std::make_unique<Seeder>(engine_, controller_, bus_, soil_ptrs,
                                     config_.seeder);
  scarecrow_ = std::make_unique<Scarecrow>(*this, config_.scarecrow);
}

void FarmSystem::write_farm_report(std::ostream& os) {
  scarecrow_->evaluate_now();
  scarecrow_->write_report(os);
}

void FarmSystem::write_farm_report_json(std::ostream& os) {
  scarecrow_->evaluate_now();
  scarecrow_->write_report_json(os);
}

Soil& FarmSystem::soil(net::NodeId node) {
  for (auto& s : soils_)
    if (s->node() == node) return *s;
  FARM_CHECK_MSG(false, "no soil for node");
}

asic::SwitchChassis& FarmSystem::chassis(net::NodeId node) {
  FARM_CHECK(node < by_node_.size() && by_node_[node]);
  return *by_node_[node];
}

std::vector<Soil*> FarmSystem::soils() {
  std::vector<Soil*> out;
  for (auto& s : soils_) out.push_back(s.get());
  return out;
}

void FarmSystem::load_traffic(net::FlowSchedule schedule) {
  if (driver_) driver_->stop();
  driver_ = std::make_unique<asic::TrafficDriver>(
      engine_, fabric_.topo, by_node_, std::move(schedule));
  driver_->start();
}

}  // namespace farm::core

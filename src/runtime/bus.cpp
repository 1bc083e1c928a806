#include "runtime/bus.h"

#include "runtime/wire.h"
#include "sim/cost_model.h"
#include "util/log.h"

namespace farm::runtime {

MessageBus::MessageBus(sim::Engine& engine) : engine_(engine) {
  tel_ = &engine_.telemetry();
  m_up_bytes_ = tel_->counter("bus.up.bytes");
  m_up_msgs_ = tel_->counter("bus.up.msgs");
  m_down_bytes_ = tel_->counter("bus.down.bytes");
  m_down_msgs_ = tel_->counter("bus.down.msgs");
  m_up_lag_ = tel_->gauge("bus.up.lag_ms");
}

void MessageBus::meter_up(std::size_t bytes) {
  tel_->add(m_up_bytes_, static_cast<double>(bytes));
  tel_->add(m_up_msgs_);
}

void MessageBus::meter_down(std::size_t bytes) {
  tel_->add(m_down_bytes_, static_cast<double>(bytes));
  tel_->add(m_down_msgs_);
}

void MessageBus::attach_soil(Soil& soil) { soils_[soil.node()] = &soil; }
void MessageBus::detach_soil(net::NodeId node) { soils_.erase(node); }

void MessageBus::attach_harvester(const std::string& task,
                                  Harvester& harvester) {
  harvesters_[task] = &harvester;
  harvester.bind(*this);
}

void MessageBus::detach_harvester(const std::string& task) {
  harvesters_.erase(task);
}

sim::Duration MessageBus::control_delay(std::size_t bytes) const {
  return sim::cost::kControlPathLatency +
         sim::Duration::from_seconds(static_cast<double>(bytes) * 8.0 /
                                     sim::cost::kControlLinkBandwidthBps);
}

void MessageBus::to_harvester(const SeedId& from, net::NodeId from_switch,
                              const Value& raw_payload) {
  Value payload = raw_payload.deep_copy();  // wire copy: no sender aliasing
  std::size_t bytes = sim::cost::kFarmReportBytes + value_wire_bytes(payload);
  meter_up(bytes);
  tel_->level(m_up_lag_, control_delay(bytes).millis());
  auto it = harvesters_.find(from.task);
  if (it == harvesters_.end()) {
    FARM_LOG(kDebug) << "no harvester for task " << from.task;
    return;
  }
  Harvester* h = it->second;
  engine_.schedule_after(control_delay(bytes),
                         [h, from, from_switch, payload] {
                           h->handle_seed_message(from, from_switch, payload);
                         });
}

void MessageBus::to_machine(const SeedId& from, net::NodeId /*from_switch*/,
                            const std::string& machine,
                            std::optional<std::int64_t> dst_switch,
                            const Value& raw_payload) {
  Value payload = raw_payload.deep_copy();  // wire copy: no sender aliasing
  std::size_t bytes = sim::cost::kFarmReportBytes + value_wire_bytes(payload);
  // Seed-to-seed traffic also rides the management network; it is both
  // up and down from the fabric's perspective — meter once each way.
  meter_up(bytes);
  meter_down(bytes);
  for (auto& [node, soil] : soils_) {
    if (dst_switch && static_cast<std::int64_t>(node) != *dst_switch)
      continue;
    for (Seed* seed : soil->seeds()) {
      if (seed->id().machine != machine || seed->id().task != from.task)
        continue;
      if (seed->id() == from) continue;  // no self-delivery
      Soil* s = soil;
      SeedId to = seed->id();
      engine_.schedule_after(
          control_delay(bytes), [s, to, from, payload] {
            s->deliver_to_seed(to, payload, /*from_harvester=*/false,
                               from.machine);
          });
    }
  }
}

void MessageBus::ping(Soil& soil, std::function<void(bool alive)> cb) {
  meter_down(sim::cost::kHeartbeatBytes);
  Soil* s = &soil;
  engine_.schedule_after(
      control_delay(sim::cost::kHeartbeatBytes), [this, s, cb] {
        if (!s->online()) return;  // the probe dies with the switch
        meter_up(sim::cost::kHeartbeatBytes);
        engine_.schedule_after(control_delay(sim::cost::kHeartbeatBytes),
                               [cb] { cb(true); });
      });
}

void MessageBus::harvester_to_seed(const std::string& task, const SeedId& to,
                                   const Value& raw_payload) {
  Value payload = raw_payload.deep_copy();
  std::size_t bytes = sim::cost::kFarmReportBytes + value_wire_bytes(payload);
  meter_down(bytes);
  for (auto& [node, soil] : soils_) {
    Seed* seed = soil->find(to);
    if (!seed) continue;
    Soil* s = soil;
    engine_.schedule_after(control_delay(bytes), [s, to, payload] {
      s->deliver_to_seed(to, payload, /*from_harvester=*/true, "");
    });
    return;
  }
  (void)task;
}

void MessageBus::harvester_broadcast(const std::string& task,
                                     const std::string& machine,
                                     const Value& raw_payload) {
  Value payload = raw_payload.deep_copy();
  std::size_t bytes = sim::cost::kFarmReportBytes + value_wire_bytes(payload);
  for (auto& [node, soil] : soils_) {
    for (Seed* seed : soil->seeds()) {
      if (seed->id().task != task) continue;
      if (!machine.empty() && seed->id().machine != machine) continue;
      meter_down(bytes);
      Soil* s = soil;
      SeedId to = seed->id();
      engine_.schedule_after(control_delay(bytes), [s, to, payload] {
        s->deliver_to_seed(to, payload, /*from_harvester=*/true, "");
      });
    }
  }
}

std::vector<std::pair<Soil*, Seed*>> MessageBus::seeds_of(
    const std::string& task, const std::string& machine) const {
  std::vector<std::pair<Soil*, Seed*>> out;
  for (const auto& [node, soil] : soils_)
    for (Seed* seed : soil->seeds())
      if (seed->id().task == task &&
          (machine.empty() || seed->id().machine == machine))
        out.emplace_back(soil, seed);
  return out;
}

}  // namespace farm::runtime

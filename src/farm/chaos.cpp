#include "farm/chaos.h"

#include "telemetry/hub.h"

namespace farm::core {

ChaosController::ChaosController(FarmSystem& system, sim::FaultPlan plan)
    : system_(system),
      injector_(system.engine(), std::move(plan),
                [this](const sim::FaultEvent& e) { apply(e); }) {}

sim::ChaosSpec ChaosController::default_spec(const FarmSystem& system) {
  const net::Topology& topo = system.topology();
  sim::ChaosSpec spec;
  spec.switches = topo.switches();
  for (net::NodeId n : spec.switches)
    for (net::NodeId m : topo.neighbors(n))
      if (n < m && topo.node(m).kind == net::NodeKind::kSwitch)
        spec.links.emplace_back(n, m);
  spec.start = sim::TimePoint::origin() + sim::Duration::ms(500);
  spec.end = sim::TimePoint::origin() + sim::Duration::sec(5);
  return spec;
}

void ChaosController::record_flight_to(std::string path,
                                       std::size_t last_events) {
  flight_armed_ = true;
  telemetry::FlightRecorder& fr = system_.engine().telemetry().flight();
  fr.arm(std::move(path), last_events);
  fr.arm_on_check_failure();
}

void ChaosController::apply(const sim::FaultEvent& e) {
  // The fault lands in the telemetry stream *before* its consequences do:
  // chaos tests assert the chaos.<kind> mark precedes the first symptom
  // (poll timeout, failure detection, reroute) in virtual time.
  telemetry::Hub& tel = system_.engine().telemetry();
  tel.mark(tel.counter("chaos." + sim::to_string(e.kind)),
           static_cast<double>(e.a));
  net::Topology& topo = system_.topology_mut();
  switch (e.kind) {
    case sim::FaultKind::kLinkDown:
      topo.set_link_state(e.a, e.b, false);
      break;
    case sim::FaultKind::kLinkUp:
      topo.set_link_state(e.a, e.b, true);
      break;
    case sim::FaultKind::kSwitchCrash: {
      asic::SwitchChassis& ch = system_.chassis(e.a);
      if (!ch.powered()) break;  // random plans may double-crash; idempotent
      // The soil process dies first (while its samplers can still be torn
      // down), then the hardware goes dark and the node leaves the fabric.
      system_.soil(e.a).crash();
      ch.power_off();
      topo.set_node_state(e.a, false);
      break;
    }
    case sim::FaultKind::kSwitchReboot: {
      asic::SwitchChassis& ch = system_.chassis(e.a);
      if (ch.powered()) break;
      ch.power_on();
      topo.set_node_state(e.a, true);
      break;
    }
    case sim::FaultKind::kPollLossStart:
      system_.chassis(e.a).pcie().set_loss_rate(e.param);
      break;
    case sim::FaultKind::kPollLossStop:
      system_.chassis(e.a).pcie().set_loss_rate(0);
      break;
  }
  // Each fault refreshes the dump, so the file on disk always covers the
  // most recent injection when a run is inspected post-mortem.
  if (flight_armed_)
    tel.flight().trigger("chaos." + sim::to_string(e.kind));
}

}  // namespace farm::core

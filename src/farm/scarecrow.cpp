#include "farm/scarecrow.h"

#include "farm/system.h"
#include "telemetry/prof.h"
#include "telemetry/report.h"
#include "util/log.h"

namespace farm::core {

namespace {
// Leaves per pod group in the health tree; spines form their own group.
constexpr std::size_t kPodLeaves = 4;
}  // namespace

std::vector<std::string> Scarecrow::default_rules() {
  return {
      // A soil that stops delivering polls for a second is in trouble —
      // crashed switch, dead PCIe channel, or starved CPU. Primary
      // detector for chaos switch-crash faults.
      "poll-staleness: staleness(soil.*.poll_deliveries) > 1",
      // Sustained PCIe timeout bursts (lossy channel). Healthy soils see
      // none; a loss burst at 50 ms poll intervals produces many per second.
      "poll-timeouts: rate(soil.*.poll_timeouts) > 2 for 100ms",
      // PCIe busy fraction against the monitoring budget: busy_ns grows by
      // 1e9/s when the channel never rests. Smoothed (EWMA) so a single
      // large transfer doesn't trip it.
      "pcie-saturated: burn(pcie.*.busy_ns) > 920000000 alpha 0.5",
      // Per-report management-network delivery lag toward harvesters.
      "bus-lag: value(bus.up.lag_ms) > 50",
      // Seeds dark too long between a switch failure and their reseed.
      "reseed-downtime: value(seeder.last_downtime_ms) > 2000",
      // Monitoring TCAM partition nearly full: the next count rule drops.
      "tcam-occupancy: value(tcam.*.mon_frac) > 0.9",
  };
}

Scarecrow::Scarecrow(FarmSystem& system, ScarecrowConfig config)
    : system_(system), config_(config), alerts_(system.telemetry()) {
  for (const std::string& spec : default_rules())
    FARM_CHECK_MSG(alerts_.add_rule(spec), "bad built-in rule");
  for (const std::string& spec : config_.rules) {
    if (!alerts_.add_rule(spec)) {
      FARM_LOG(kWarn) << "scarecrow: unparseable rule skipped: " << spec;
    }
  }

  // Static tree shape: spines in one group, leaves in pods of kPodLeaves.
  const net::SpineLeaf& fabric = system_.fabric();
  health_.add_group("spines");
  for (net::NodeId n : fabric.spine_switches)
    health_.set_leaf(fabric.topo.node(n).name, "spines", 1);
  for (std::size_t i = 0; i < fabric.leaf_switches.size(); ++i) {
    const std::string pod = "pod" + std::to_string(i / kPodLeaves);
    if (!health_.has_node(pod)) health_.add_group(pod);
    health_.set_leaf(fabric.topo.node(fabric.leaf_switches[i]).name, pod, 1);
  }

  m_fabric_ = system_.telemetry().gauge("health.fabric");

  if (config_.eval_period.is_positive()) {
    task_ = std::make_unique<sim::PeriodicTask>(
        system_.engine(), config_.eval_period, [this] { evaluate_now(); });
    task_->start();
  }
}

void Scarecrow::evaluate_now() {
  FARM_PROF_SCOPE("scarecrow/evaluate");
  alerts_.evaluate(system_.engine().now());
  refresh_health();
}

void Scarecrow::refresh_health() {
  const telemetry::Registry& reg = system_.telemetry().registry();
  const net::SpineLeaf& fabric = system_.fabric();
  auto grade = [&](net::NodeId n) {
    const std::string& name = fabric.topo.node(n).name;
    // Base: the seeder's graded heartbeat view (1 = current, 0 = dead).
    double score = system_.seeder().health_grade(n);
    // Every firing alert whose metric names this switch halves the score —
    // a switch that is alive but drowning in PCIe timeouts is degraded,
    // not healthy.
    for (const telemetry::Alert& a : alerts_.alerts()) {
      if (a.state != telemetry::AlertState::kFiring) continue;
      if (telemetry::label_component(reg.name(a.metric), 1) == name)
        score *= 0.5;
    }
    health_.set_leaf_score(name, score);
  };
  for (net::NodeId n : fabric.spine_switches) grade(n);
  for (net::NodeId n : fabric.leaf_switches) grade(n);
  system_.telemetry().level(m_fabric_, health_.fabric_score());
}

void Scarecrow::write_report(std::ostream& os) const {
  // The farm report carries the Furrow control-plane profile alongside the
  // virtual-time telemetry: same run, wall-clock view of the solver.
  telemetry::prof::Snapshot profile =
      telemetry::prof::Profiler::instance().snapshot();
  telemetry::ReportInputs in;
  in.hub = &system_.telemetry();
  in.alerts = &alerts_;
  in.health = &health_;
  in.profile = &profile;
  in.now = system_.engine().now();
  telemetry::write_farm_report(os, in);
}

void Scarecrow::write_report_json(std::ostream& os) const {
  telemetry::prof::Snapshot profile =
      telemetry::prof::Profiler::instance().snapshot();
  telemetry::ReportInputs in;
  in.hub = &system_.telemetry();
  in.alerts = &alerts_;
  in.health = &health_;
  in.profile = &profile;
  in.now = system_.engine().now();
  telemetry::write_farm_report_json(os, in);
}

}  // namespace farm::core

// Scarecrow: the farm's watchful eye — SLO alerting and fabric health on
// top of Granary telemetry.
//
// A Scarecrow owns one AlertManager and one HealthTree per FarmSystem and
// drives both from a virtual-time periodic task:
//   - the default SLO rules cover the paper's operational failure modes:
//     soils gone silent (switch crash), PCIe poll timeouts (lossy or
//     saturated channel), PCIe bandwidth burn against the 8 Mbps budget,
//     harvester message-bus lag, seed re-placement downtime, and
//     monitoring-TCAM occupancy;
//   - the health tree grades every switch (seeder heartbeat grade, halved
//     per firing alert naming the switch) and rolls the scores up
//     switch → pod → fabric, published as the "health.fabric" gauge.
// Alert transitions are mark events, so chrome-trace exports and chaos
// flight dumps show pending/firing/resolved edges next to the fault marks
// that caused them. The end-of-run "farm report" (text or JSON) renders
// hub + alerts + health in one snapshot.
//
// With a zero eval_period the periodic task never starts.
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "telemetry/alert.h"
#include "telemetry/health.h"

namespace farm::core {

class FarmSystem;

struct ScarecrowConfig {
  // Alert evaluation cadence (virtual time). Detection latency of a
  // staleness rule is its threshold plus at most one period. Zero stops
  // the evaluator.
  sim::Duration eval_period = sim::Duration::ms(100);
  // Extra declarative rules (SloRule::parse grammar), applied after
  // default_rules(). Unparseable entries are skipped.
  std::vector<std::string> rules;
};

class Scarecrow {
 public:
  Scarecrow(FarmSystem& system, ScarecrowConfig config);

  // The built-in SLO rule set (declarative form).
  static std::vector<std::string> default_rules();

  telemetry::AlertManager& alerts() { return alerts_; }
  const telemetry::AlertManager& alerts() const { return alerts_; }
  const telemetry::HealthTree& health() const { return health_; }
  double fabric_score() const { return health_.fabric_score(); }
  // Whether the periodic evaluator is active (false when eval_period is
  // zero).
  bool running() const { return task_ != nullptr; }

  // One evaluation right now — what the periodic task does each tick.
  // Callable even when !running() (e.g. before a report with the evaluator
  // stopped: alerts see the current aggregates, health reflects the seeder).
  void evaluate_now();

  // "farm report" renderers over this system's hub + alerts + health.
  void write_report(std::ostream& os) const;
  void write_report_json(std::ostream& os) const;

 private:
  void refresh_health();

  FarmSystem& system_;
  ScarecrowConfig config_;
  telemetry::AlertManager alerts_;
  telemetry::HealthTree health_;
  std::unique_ptr<sim::PeriodicTask> task_;
  telemetry::MetricId m_fabric_ = telemetry::kInvalidMetric;
};

}  // namespace farm::core

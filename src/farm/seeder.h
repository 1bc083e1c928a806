// Seeder: FARM's centralized M&M control instance (§II-C b, §III-B).
//
// Task installation parses the task once, runs the Sickle gate on it, and
// then the paper's three-step elaboration:
//   1. resolve `place` directives against the SDN controller → seeds S^m
//      and candidate sets N^s;
//   2. analyze `util` → resource constraints C^s and utility u^s. This
//      depends on the state alone: compiling the machine image analyzes
//      every state once (CompiledState::utility);
//   3. analyze poll variables → subjects (φ_enc) and interval functions.
// The results feed the global placement optimizer (Algorithm 1). Each
// placement pass locates every planned seed once, builds the problem — a
// live seed contributes its current state's analysis, a fresh one its
// initial state's — and realizes the optimizer's output: deploys new
// seeds, reallocates resources, and live-migrates moved seeds (description
// first, then state; execution resumes at the target once the state
// arrived — §V-B).
//
// The seeder counts deployments, migrations, reseeds, transients, failure
// verdicts and lint rejections into the engine's Granary Hub (`seeder.*`,
// `seed.lint.rejected`), and its count accessors read them back; of the
// detection latencies it keeps only the running sum and maximum.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "almanac/verify/verify.h"
#include "placement/memo.h"
#include "runtime/bus.h"
#include "runtime/soil.h"

namespace farm::core {

using almanac::Value;
using runtime::MessageBus;
using runtime::Seed;
using runtime::SeedId;
using runtime::Soil;

struct TaskSpec {
  std::string name;
  std::string source;  // Almanac program text
  // Machines to instantiate; empty = every machine in the program.
  std::vector<std::string> machines;
  // external-variable bindings, applied to every machine declaring them.
  std::unordered_map<std::string, Value> externals;
};

struct SeederOptions {
  // Heartbeat-based switch failure detection (§II-C b: the seeder must
  // notice dead switches and re-place their seeds). A switch is declared
  // dead after three silent periods. Zero disables probing.
  sim::Duration heartbeat_period = sim::Duration::ms(250);
};

class Seeder {
 public:
  Seeder(sim::Engine& engine, const net::SdnController& controller,
         MessageBus& bus, std::vector<Soil*> soils, SeederOptions options = {});

  // Installs the task and (re)optimizes the global placement. Task intake
  // first runs the Sickle verifier (§III-B, DESIGN.md §10) and rejects a
  // task whose seeds carry error-severity diagnostics before any
  // elaboration or placement; warnings deploy. Returns the ids of the
  // task's deployed seeds (empty if the task did not fit, or if the Sickle
  // gate rejected it — see last_lint()).
  std::vector<SeedId> install_task(const TaskSpec& spec);
  // Diagnostics of the most recent install_task intake (empty when the
  // task was clean).
  const std::vector<almanac::verify::Diagnostic>& last_lint() const {
    return last_lint_;
  }
  // Tasks rejected by the Sickle gate since construction.
  std::uint64_t lint_rejections() const {
    return tel_->tally(m_lint_rejected_);
  }
  void remove_task(const std::string& name);
  // Re-runs global placement over all installed tasks: one build → solve →
  // realize pass. The seeder runs it once per control event (task install
  // or removal, switch failure or recovery, a live migration landing);
  // calling it from inside a pass aborts.
  void reoptimize();

  const placement::PlacementResult& last_placement() const { return last_; }
  // Retired: every control event runs one pass, so no request is ever
  // deferred. Always 0; kept only because farmbench still reports it.
  std::uint64_t deferred_reoptimizes() const { return 0; }
  // The optimization input built from the currently installed tasks;
  // exposed so benchmarks can solve it with other algorithms.
  placement::PlacementProblem build_problem() const;

  std::uint64_t migrations_performed() const {
    return tel_->tally(m_migrations_);
  }
  std::uint64_t deployments() const { return tel_->tally(m_deployments_); }
  std::vector<SeedId> seeds_of_task(const std::string& name) const;

  // --- Failure detection ---------------------------------------------------
  // Switches currently considered dead (heartbeat timeout, not yet back).
  std::vector<net::NodeId> failed_nodes() const;
  bool node_failed(net::NodeId node) const;
  // Graded liveness in [0, 1]: 1 = heartbeats current, 0 = declared dead,
  // in between = an active miss streak (1 - streak / miss limit). Scarecrow
  // folds this into the fabric health tree.
  double health_grade(net::NodeId node) const;
  // Consecutive heartbeat periods the switch has been silent (0 = current).
  int miss_streak(net::NodeId node) const;
  // Dead-switch verdicts since construction, and the time from the last
  // successful heartbeat to each verdict, in seconds: summed and maximised
  // over the verdicts.
  std::uint64_t failures_detected() const { return tel_->tally(m_failures_); }
  double detection_latency_sum() const { return detection_latency_sum_; }
  double detection_latency_max() const { return detection_latency_max_; }
  // Switches that went silent for >= 1 heartbeat period but answered again
  // before the dead-switch verdict. These used to vanish from the
  // detection accounting entirely; now each one is counted and marked
  // ("seeder.transient" event carrying the streak length) so chaos flight
  // dumps show the near-miss.
  std::uint64_t transients() const { return tel_->tally(m_transient_); }
  // Deployments performed to replace seeds displaced by switch failures.
  std::uint64_t reseed_count() const { return tel_->tally(m_reseeds_); }

 private:
  struct PlannedSeed {
    SeedId id;
    std::shared_ptr<runtime::MachineImage> image;
    std::unordered_map<std::string, Value> externals;
    std::vector<net::NodeId> candidates;
    std::vector<placement::PollModel> polls;
  };
  struct InstalledTask {
    TaskSpec spec;
    std::vector<PlannedSeed> seeds;
  };

  struct NodeHealth {
    sim::TimePoint last_seen;
    bool failed = false;
    // Consecutive heartbeat periods with no response, reset on contact.
    int miss_streak = 0;
  };

  // Where each planned seed runs (seeder.cpp).
  struct SeedIndex;

  using Images = std::vector<std::shared_ptr<runtime::MachineImage>>;
  // Sickle pre-deployment verification (step 0): parses the task source
  // and verifies its seeds; fills last_lint_. When the task may proceed,
  // returns one image per requested machine, holding the machine the
  // verifier compiled; nullopt when the task is rejected.
  std::optional<Images> lint_intake(const TaskSpec& spec);
  // Elaborates the task's machine images into planned seeds (steps 1-3).
  std::vector<PlannedSeed> elaborate(const TaskSpec& spec,
                                     const Images& images);
  // One pass over the soils' seed lists.
  SeedIndex locate_seeds() const;
  placement::PlacementProblem build_problem(const SeedIndex& where) const;
  void realize(const placement::PlacementResult& result,
               const SeedIndex& where);
  Soil* soil_at(net::NodeId node) const;
  void heartbeat_tick();
  void on_node_failed(Soil& soil);
  void on_node_recovered(net::NodeId node);

  sim::Engine& engine_;
  const net::SdnController& controller_;
  MessageBus& bus_;
  std::vector<Soil*> soils_;
  SeederOptions options_;
  // Bounds of the soils, which never change configuration: the widest
  // interface fan-out (kAllIfaces polls pay for the widest chassis) and the
  // smallest monitoring TCAM bank (unset without soils).
  int max_ifaces_ = 1;
  std::optional<int> min_monitoring_tcam_;
  std::unordered_map<std::string, InstalledTask> tasks_;
  placement::PlacementResult last_;
  // Every Algorithm-1 re-solve runs through this memo (placement/memo.h):
  // one seed event only re-solves the LPs it changed, and the result is
  // bit-identical to a memo-less solve.
  placement::SolveMemo memo_;
  // True for the whole reoptimize (solve + realize); guards re-entry.
  bool reoptimizing_ = false;
  // Ids (SeedId::to_string) of seeds whose live migration is under way.
  // realize() leaves them at their source until the transfer lands.
  std::unordered_set<std::string> in_transfer_;
  std::vector<almanac::verify::Diagnostic> last_lint_;

  // Heartbeat failure detection, keyed by switch node.
  std::unordered_map<net::NodeId, NodeHealth> health_;
  std::unique_ptr<sim::PeriodicTask> heartbeat_task_;
  double detection_latency_sum_ = 0;
  double detection_latency_max_ = 0;

  // Granary: seeder.* metrics and placement-solve spans on the "seeder"
  // track; failure detections are marks so chaos traces show the verdict.
  telemetry::Hub* tel_ = nullptr;
  telemetry::TrackId track_ = 0;
  telemetry::MetricId m_heartbeats_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_failures_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_recoveries_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_reseeds_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_deployments_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_migrations_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_reoptimizes_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_miss_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_transient_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_downtime_gauge_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_downtime_hist_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_transfer_hist_ = telemetry::kInvalidMetric;
  telemetry::MetricId m_lint_rejected_ = telemetry::kInvalidMetric;
};

}  // namespace farm::core

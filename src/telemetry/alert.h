// Scarecrow SLO alerting over Granary metrics.
//
// A rule watches every registered metric whose dot-label matches a pattern
// and evaluates one of four measures against a threshold on each tick of
// the owner's (virtual-time) evaluation clock:
//   kThreshold — the live registry aggregate (counter total / gauge level /
//                histogram observation sum);
//   kRate      — growth of the live aggregate per second, measured between
//                consecutive evaluations. Works on registry-only hot
//                metrics (Hub::count/level) that never hit the event ring;
//   kBurnRate  — exponentially-weighted moving average of kRate, the
//                classic SLO burn-rate smoother for bursty series;
//   kStaleness — seconds since the live aggregate last changed, detecting
//                sources that went silent (a crashed switch's soil stops
//                bumping poll_deliveries).
// All measures read only live aggregates — one pass over the registry per
// tick, no event-store scans — so the evaluator stays O(metrics) and safe
// to run every few virtual milliseconds.
//
// Each (rule, matching metric) pair is one alert instance with the
// lifecycle inactive → pending → firing → resolved. Every transition is
// recorded as a mark event "alert.<rule>.<state>" carrying the measured
// value, so alerts ride the existing chrome-trace/CSV/JSON exporters and
// chaos flight dumps for free, and detection latency is assertable from
// the event store.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "telemetry/hub.h"

namespace farm::telemetry {

enum class SloKind : std::uint8_t {
  kThreshold,
  kRate,
  kBurnRate,
  kStaleness,
};

enum class SloOp : std::uint8_t { kGreater, kLess };

std::string to_string(SloKind kind);

struct SloRule {
  std::string name;     // alert family, e.g. "pcie-saturated"
  std::string pattern;  // label pattern per label_matches()
  SloKind kind = SloKind::kThreshold;
  SloOp op = SloOp::kGreater;
  double threshold = 0;
  // Breach must persist this long before pending escalates to firing.
  util::Duration hold;
  // kBurnRate EWMA smoothing factor in (0, 1]; 1 degenerates to kRate.
  double alpha = 0.3;

  // One-line declarative grammar (whitespace-separated):
  //   <name> ':' <measure> '(' <pattern> ')' <op> <number>
  //          [ 'for' <duration> ] [ 'alpha' <number> ]
  // measure  := 'value' | 'rate' | 'burn' | 'staleness'
  // op       := '>' | '<'
  // duration := <number> ('ns' | 'us' | 'ms' | 's')
  // e.g. "poll-timeouts: rate(soil.*.poll_timeouts) > 2 for 100ms"
  static std::optional<SloRule> parse(std::string_view spec);
};

enum class AlertState : std::uint8_t {
  kInactive,
  kPending,
  kFiring,
  kResolved,
};

std::string to_string(AlertState state);

struct Alert {
  std::size_t rule = 0;  // index into AlertManager::rules()
  MetricId metric = kInvalidMetric;
  AlertState state = AlertState::kInactive;
  double value = 0;  // last evaluated measure
  TimePoint pending_since;
  TimePoint firing_since;
  TimePoint resolved_at;
  std::uint64_t fires = 0;  // lifetime pending→firing transitions

  // --- Evaluator state (per instance, O(1) per tick) -------------------------
  bool seen = false;       // raw aggregate sampled at least once
  double prev_raw = 0;     // aggregate at the previous evaluation
  TimePoint prev_at;       // when prev_raw was sampled
  bool ewma_primed = false;
  double ewma = 0;
  bool ever_active = false;  // kStaleness: aggregate changed at least once
  TimePoint last_active;     // kStaleness: when it last changed
};

class AlertManager {
 public:
  explicit AlertManager(Hub& hub);

  // Returns the rule index. Transition mark metrics are registered here so
  // their names exist before the first event.
  std::size_t add_rule(SloRule rule);
  // Parses the declarative form; false (and no rule added) on bad syntax.
  bool add_rule(std::string_view spec);
  const std::vector<SloRule>& rules() const { return rules_; }

  // Evaluates every rule against the hub's live aggregates at `now`.
  // Deterministic: owners drive this from a virtual-time periodic task.
  void evaluate(TimePoint now);

  const std::vector<Alert>& alerts() const { return alerts_; }
  // First alert of rule `name`, optionally narrowed to a concrete metric
  // label; nullptr when no such instance exists (yet).
  const Alert* find(std::string_view name,
                    std::string_view metric_label = {}) const;
  std::size_t firing_count() const;
  // True when any instance whose metric label matches `pattern` is firing.
  bool any_firing(std::string_view pattern) const;

  std::uint64_t evaluations() const { return evaluations_; }
  std::uint64_t transitions() const { return transitions_; }

 private:
  struct RuleMarks {
    MetricId pending = kInvalidMetric;
    MetricId firing = kInvalidMetric;
    MetricId resolved = kInvalidMetric;
    // Matching restarts from this registry index next evaluation; metrics
    // registered later are discovered incrementally.
    std::size_t scanned = 0;
  };

  void discover(std::size_t rule_index);
  // Returns the measured value, or nullopt while the instance has no data
  // (first rate sample, never-active staleness source).
  std::optional<double> measure(const SloRule& rule, Alert& a, TimePoint now);
  // Measure + state machine for one instance; emits its transition marks.
  void step(Alert& a, TimePoint now);

  Hub& hub_;
  std::vector<SloRule> rules_;
  std::vector<RuleMarks> marks_;
  std::vector<Alert> alerts_;
  // (rule index << 32 | metric id) → index into alerts_.
  std::unordered_map<std::uint64_t, std::size_t> index_;
  MetricId m_firing_total_ = kInvalidMetric;
  std::uint64_t evaluations_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace farm::telemetry

// Scarecrow tests: SLO rule grammar, the alert lifecycle per measure kind,
// hierarchical health rollups, the farm report renderers, and the
// FarmSystem integration (default rules, periodic evaluation, report).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "farm/scarecrow.h"
#include "farm/system.h"
#include "telemetry/alert.h"
#include "telemetry/health.h"
#include "telemetry/hub.h"
#include "telemetry/report.h"

namespace farm::telemetry {
namespace {

using sim::Duration;
using util::TimePoint;

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::origin() + Duration::ms(ms);
}

// --- Rule grammar ------------------------------------------------------------

TEST(SloParse, ThresholdRule) {
  auto r = SloRule::parse("bus-lag: value(bus.up.lag_ms) > 50");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->name, "bus-lag");
  EXPECT_EQ(r->pattern, "bus.up.lag_ms");
  EXPECT_EQ(r->kind, SloKind::kThreshold);
  EXPECT_EQ(r->op, SloOp::kGreater);
  EXPECT_DOUBLE_EQ(r->threshold, 50);
  EXPECT_FALSE(r->hold.is_positive());
}

TEST(SloParse, RateWithHold) {
  auto r = SloRule::parse("poll-timeouts: rate(soil.*.poll_timeouts) > 2 "
                          "for 100ms");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, SloKind::kRate);
  EXPECT_EQ(r->hold.count_ns(), Duration::ms(100).count_ns());
}

TEST(SloParse, BurnWithAlpha) {
  auto r = SloRule::parse("pcie-burn: burn(pcie.*.busy_ns) > 9.2e8 alpha 0.5");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, SloKind::kBurnRate);
  EXPECT_DOUBLE_EQ(r->alpha, 0.5);
  EXPECT_DOUBLE_EQ(r->threshold, 9.2e8);
}

TEST(SloParse, StalenessAndLessThan) {
  auto r = SloRule::parse("quiet: staleness(soil.*.poll_deliveries) < 3 "
                          "for 2s");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, SloKind::kStaleness);
  EXPECT_EQ(r->op, SloOp::kLess);
  EXPECT_EQ(r->hold.count_ns(), Duration::sec(2).count_ns());
}

TEST(SloParse, DurationUnits) {
  EXPECT_EQ(SloRule::parse("a: value(x) > 1 for 500us")->hold.count_ns(),
            Duration::us(500).count_ns());
  EXPECT_EQ(SloRule::parse("a: value(x) > 1 for 7ns")->hold.count_ns(), 7);
  EXPECT_EQ(SloRule::parse("a: value(x) > 1 for 1s")->hold.count_ns(),
            Duration::sec(1).count_ns());
}

TEST(SloParse, RejectsBadSyntax) {
  EXPECT_FALSE(SloRule::parse("").has_value());
  EXPECT_FALSE(SloRule::parse("no-colon value(x) > 1").has_value());
  EXPECT_FALSE(SloRule::parse("r: frobnicate(x) > 1").has_value());
  EXPECT_FALSE(SloRule::parse("r: value x > 1").has_value());
  EXPECT_FALSE(SloRule::parse("r: value(x) > ").has_value());
  EXPECT_FALSE(SloRule::parse("r: value(x) >= 1").has_value());
  EXPECT_FALSE(SloRule::parse("r: value(x) > 1 for 10").has_value());
}

TEST(SloParse, DefaultRulesAllParse) {
  for (const std::string& spec : core::Scarecrow::default_rules()) {
    EXPECT_TRUE(SloRule::parse(spec).has_value()) << spec;
  }
}

// --- Alert lifecycle ---------------------------------------------------------

TEST(Alerts, ThresholdFiresAndResolves) {
  Hub hub;
  MetricId g = hub.gauge("bus.up.lag_ms");
  AlertManager mgr(hub);
  ASSERT_TRUE(mgr.add_rule("bus-lag: value(bus.up.lag_ms) > 50"));

  mgr.evaluate(at_ms(0));
  const Alert* a = mgr.find("bus-lag");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->state, AlertState::kInactive);
  EXPECT_EQ(mgr.firing_count(), 0u);

  hub.level(g, 80);
  mgr.evaluate(at_ms(100));
  a = mgr.find("bus-lag", "bus.up.lag_ms");
  ASSERT_NE(a, nullptr);
  // No hold: pending escalates to firing within the same tick.
  EXPECT_EQ(a->state, AlertState::kFiring);
  EXPECT_EQ(a->fires, 1u);
  EXPECT_DOUBLE_EQ(a->value, 80);
  EXPECT_EQ(mgr.firing_count(), 1u);
  EXPECT_TRUE(mgr.any_firing("bus.**"));
  EXPECT_FALSE(mgr.any_firing("pcie.**"));
  // Transitions ride the event store as marks.
  EXPECT_EQ(hub.query().label("alert.bus-lag.pending").count(), 1u);
  EXPECT_EQ(hub.query().label("alert.bus-lag.firing").count(), 1u);
  // ...and the firing gauge tracks the live total.
  EXPECT_DOUBLE_EQ(hub.registry().value(hub.registry().find(
                       "alert.firing_total")),
                   1);

  hub.level(g, 5);
  mgr.evaluate(at_ms(200));
  a = mgr.find("bus-lag");
  EXPECT_EQ(a->state, AlertState::kResolved);
  EXPECT_EQ(mgr.firing_count(), 0u);
  EXPECT_EQ(hub.query().label("alert.bus-lag.resolved").count(), 1u);

  // A later breach re-fires the same instance.
  hub.level(g, 90);
  mgr.evaluate(at_ms(300));
  EXPECT_EQ(mgr.find("bus-lag")->fires, 2u);
}

TEST(Alerts, HoldDelaysEscalationAndClearsSilently) {
  Hub hub;
  MetricId g = hub.gauge("q.depth");
  AlertManager mgr(hub);
  ASSERT_TRUE(mgr.add_rule("deep: value(q.depth) > 10 for 300ms"));

  hub.level(g, 50);
  mgr.evaluate(at_ms(0));
  EXPECT_EQ(mgr.find("deep")->state, AlertState::kPending);
  mgr.evaluate(at_ms(200));
  EXPECT_EQ(mgr.find("deep")->state, AlertState::kPending);
  mgr.evaluate(at_ms(300));  // hold elapsed
  EXPECT_EQ(mgr.find("deep")->state, AlertState::kFiring);

  // Second episode that clears before the hold: back to inactive, and no
  // firing/resolved marks beyond the first episode's.
  hub.level(g, 5);
  mgr.evaluate(at_ms(400));  // resolves episode one
  hub.level(g, 99);
  mgr.evaluate(at_ms(500));  // pending again
  hub.level(g, 0);
  mgr.evaluate(at_ms(600));  // cleared before 300ms hold
  EXPECT_EQ(mgr.find("deep")->state, AlertState::kInactive);
  EXPECT_EQ(mgr.find("deep")->fires, 1u);
  EXPECT_EQ(hub.query().label("alert.deep.firing").count(), 1u);
  EXPECT_EQ(hub.query().label("alert.deep.resolved").count(), 1u);
  EXPECT_EQ(hub.query().label("alert.deep.pending").count(), 2u);
}

TEST(Alerts, RateMeasuresAggregateGrowth) {
  Hub hub;
  MetricId c = hub.counter("soil.sw0.poll_timeouts");
  AlertManager mgr(hub);
  ASSERT_TRUE(mgr.add_rule("timeouts: rate(soil.*.poll_timeouts) > 2"));

  mgr.evaluate(at_ms(0));  // first sample: no interval yet
  EXPECT_EQ(mgr.find("timeouts")->state, AlertState::kInactive);

  // Registry-only increments (Hub::count) are visible to rate rules.
  for (int i = 0; i < 10; ++i) hub.count(c);
  mgr.evaluate(at_ms(1000));  // 10/s > 2/s
  EXPECT_EQ(mgr.find("timeouts")->state, AlertState::kFiring);
  EXPECT_DOUBLE_EQ(mgr.find("timeouts")->value, 10);

  mgr.evaluate(at_ms(2000));  // no growth: rate 0
  EXPECT_EQ(mgr.find("timeouts")->state, AlertState::kResolved);
}

TEST(Alerts, BurnRateSmoothsSpikes) {
  Hub hub;
  MetricId c = hub.counter("pcie.sw.busy_ns");
  AlertManager mgr(hub);
  ASSERT_TRUE(mgr.add_rule("burn: burn(pcie.*.busy_ns) > 5 alpha 0.5"));

  mgr.evaluate(at_ms(0));
  hub.count(c, 10);
  mgr.evaluate(at_ms(1000));  // first rate primes the EWMA at 10
  EXPECT_EQ(mgr.find("burn")->state, AlertState::kFiring);
  EXPECT_DOUBLE_EQ(mgr.find("burn")->value, 10);

  mgr.evaluate(at_ms(2000));  // raw rate 0 → EWMA 0.5·0 + 0.5·10 = 5, not > 5
  EXPECT_EQ(mgr.find("burn")->state, AlertState::kResolved);
  EXPECT_DOUBLE_EQ(mgr.find("burn")->value, 5);
}

TEST(Alerts, StalenessDetectsSilenceAndRecovery) {
  Hub hub;
  MetricId g = hub.gauge("soil.sw3.poll_deliveries");
  AlertManager mgr(hub);
  ASSERT_TRUE(mgr.add_rule("stale: staleness(soil.*.poll_deliveries) > 1"));

  // Never-active sources don't alert (no data ≠ stale).
  mgr.evaluate(at_ms(0));
  EXPECT_EQ(mgr.find("stale")->state, AlertState::kInactive);

  hub.level(g, 1);
  mgr.evaluate(at_ms(500));  // movement: fresh
  hub.level(g, 2);
  mgr.evaluate(at_ms(1000));  // movement: fresh
  EXPECT_EQ(mgr.find("stale")->state, AlertState::kInactive);

  mgr.evaluate(at_ms(1900));  // 0.9 s silent: still fresh
  EXPECT_EQ(mgr.find("stale")->state, AlertState::kInactive);
  mgr.evaluate(at_ms(2100));  // 1.1 s silent: stale
  EXPECT_EQ(mgr.find("stale")->state, AlertState::kFiring);

  hub.level(g, 3);
  mgr.evaluate(at_ms(2500));  // source came back
  EXPECT_EQ(mgr.find("stale")->state, AlertState::kResolved);
}

TEST(Alerts, DiscoversMetricsRegisteredAfterTheRule) {
  Hub hub;
  AlertManager mgr(hub);
  ASSERT_TRUE(mgr.add_rule("lag: value(bus.*.lag_ms) > 50"));
  mgr.evaluate(at_ms(0));
  EXPECT_EQ(mgr.find("lag"), nullptr);  // nothing matches yet

  MetricId g = hub.gauge("bus.up.lag_ms");
  hub.level(g, 99);
  mgr.evaluate(at_ms(100));
  ASSERT_NE(mgr.find("lag", "bus.up.lag_ms"), nullptr);
  EXPECT_EQ(mgr.find("lag")->state, AlertState::kFiring);
}

TEST(Alerts, OneInstancePerMatchingMetric) {
  Hub hub;
  MetricId a = hub.gauge("tcam.leaf0.mon_frac");
  MetricId b = hub.gauge("tcam.leaf1.mon_frac");
  AlertManager mgr(hub);
  ASSERT_TRUE(mgr.add_rule("tcam: value(tcam.*.mon_frac) > 0.9"));
  hub.level(a, 0.95);
  hub.level(b, 0.10);
  mgr.evaluate(at_ms(0));
  EXPECT_EQ(mgr.alerts().size(), 2u);
  EXPECT_EQ(mgr.find("tcam", "tcam.leaf0.mon_frac")->state,
            AlertState::kFiring);
  EXPECT_EQ(mgr.find("tcam", "tcam.leaf1.mon_frac")->state,
            AlertState::kInactive);
  EXPECT_TRUE(mgr.any_firing("tcam.leaf0.**"));
  EXPECT_FALSE(mgr.any_firing("tcam.leaf1.**"));
}

TEST(Alerts, LessThanOperator) {
  Hub hub;
  MetricId g = hub.gauge("health.fabric");
  AlertManager mgr(hub);
  ASSERT_TRUE(mgr.add_rule("unhealthy: value(health.fabric) < 0.5"));
  hub.level(g, 1.0);
  mgr.evaluate(at_ms(0));
  EXPECT_EQ(mgr.find("unhealthy")->state, AlertState::kInactive);
  hub.level(g, 0.2);
  mgr.evaluate(at_ms(100));
  EXPECT_EQ(mgr.find("unhealthy")->state, AlertState::kFiring);
}

// --- Health rollups ----------------------------------------------------------

TEST(Health, EmptyTreeIsVacuouslyHealthy) {
  HealthTree t;
  EXPECT_DOUBLE_EQ(t.fabric_score(), 1);
  EXPECT_DOUBLE_EQ(t.score("nonexistent"), 1);
}

TEST(Health, RollupIsHalfMeanHalfMin) {
  HealthTree t;
  t.add_group("pod0");
  t.set_leaf("leaf0", "pod0", 0.5);
  t.set_leaf("leaf1", "pod0", 1.0);
  // mean = 0.75, min = 0.5 → 0.625
  EXPECT_DOUBLE_EQ(t.score("pod0"), 0.625);
  // Root has the single child pod0 → same score.
  EXPECT_DOUBLE_EQ(t.fabric_score(), 0.625);
}

TEST(Health, SingleDeadSwitchIsNotAveragedAway) {
  HealthTree t;
  for (int i = 0; i < 15; ++i)
    t.set_leaf("leaf" + std::to_string(i), "pod0", 1.0);
  t.set_leaf("leaf15", "pod0", 0.0);
  // mean = 15/16, min = 0 → pod health < 0.5 despite 94% healthy members.
  EXPECT_DOUBLE_EQ(t.score("pod0"), 0.5 * (15.0 / 16.0));
  EXPECT_LT(t.score("pod0"), 0.5);
}

TEST(Health, ScoresAreClamped) {
  HealthTree t;
  t.set_leaf("a", "", 1.7);
  t.set_leaf("b", "", -0.3);
  EXPECT_DOUBLE_EQ(t.score("a"), 1);
  EXPECT_DOUBLE_EQ(t.score("b"), 0);
}

TEST(Health, FlattenIsDepthFirstNameSorted) {
  HealthTree t;
  t.set_leaf("leaf1", "pod0", 0.8);
  t.set_leaf("leaf0", "pod0", 0.6);
  t.set_leaf("spine0", "spines", 1.0);
  auto v = t.flatten();
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(v[0].name, HealthTree::kRoot);
  EXPECT_EQ(v[0].depth, 0);
  EXPECT_FALSE(v[0].leaf);
  EXPECT_EQ(v[1].name, "pod0");
  EXPECT_EQ(v[2].name, "leaf0");
  EXPECT_EQ(v[2].depth, 2);
  EXPECT_TRUE(v[2].leaf);
  EXPECT_EQ(v[3].name, "leaf1");
  EXPECT_EQ(v[4].name, "spines");
  EXPECT_EQ(v[5].name, "spine0");
}

// --- Farm report -------------------------------------------------------------

// Minimal structural validation: quotes pair up and braces/brackets balance
// outside strings. Catches unescaped output and truncation.
void expect_balanced_json(const std::string& s) {
  int brace = 0, bracket = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++brace;
    else if (c == '}') --brace;
    else if (c == '[') ++bracket;
    else if (c == ']') --bracket;
    ASSERT_GE(brace, 0);
    ASSERT_GE(bracket, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
}

TEST(Report, TextRendersHealthAndAlerts) {
  Hub hub;
  MetricId g = hub.gauge("bus.up.lag_ms");
  hub.set(g, 80);
  AlertManager mgr(hub);
  mgr.add_rule("bus-lag: value(bus.up.lag_ms) > 50");
  mgr.evaluate(at_ms(100));
  HealthTree health;
  health.set_leaf("leaf0", "pod0", 0.4);

  std::ostringstream os;
  ReportInputs in;
  in.hub = &hub;
  in.alerts = &mgr;
  in.health = &health;
  in.now = at_ms(100);
  write_farm_report(os, in);
  const std::string text = os.str();
  EXPECT_NE(text.find("farm report"), std::string::npos);
  EXPECT_NE(text.find("bus-lag"), std::string::npos);
  EXPECT_NE(text.find("firing"), std::string::npos);
  EXPECT_NE(text.find("leaf0"), std::string::npos);
  EXPECT_NE(text.find("fabric"), std::string::npos);
}

TEST(Report, JsonIsStructurallySound) {
  Hub hub;
  MetricId g = hub.gauge("bus.up.lag_ms");
  hub.set(g, 80);
  hub.counter("weird\"name\\with.escapes");
  AlertManager mgr(hub);
  mgr.add_rule("bus-lag: value(bus.up.lag_ms) > 50");
  mgr.evaluate(at_ms(100));
  HealthTree health;
  health.set_leaf("leaf0", "pod0", 0.4);

  std::ostringstream os;
  ReportInputs in;
  in.hub = &hub;
  in.alerts = &mgr;
  in.health = &health;
  in.now = at_ms(100);
  write_farm_report_json(os, in);
  const std::string json = os.str();
  expect_balanced_json(json);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"alerts\""), std::string::npos);
  EXPECT_NE(json.find("\"health\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"firing\""), std::string::npos);
}

// --- FarmSystem integration --------------------------------------------------

core::FarmSystemConfig small_config() {
  core::FarmSystemConfig config;
  config.topology = {.spines = 2, .leaves = 4, .hosts_per_leaf = 1};
  return config;
}

TEST(Scarecrow, RunsByDefaultWithDefaultRules) {
  core::FarmSystem farm(small_config());
  EXPECT_TRUE(farm.scarecrow().running());
  EXPECT_EQ(farm.scarecrow().alerts().rules().size(),
            core::Scarecrow::default_rules().size());
  farm.run_for(Duration::ms(500));
  EXPECT_GT(farm.scarecrow().alerts().evaluations(), 0u);
  // A healthy idle fabric scores 1 and nothing fires.
  EXPECT_DOUBLE_EQ(farm.scarecrow().fabric_score(), 1);
  EXPECT_EQ(farm.scarecrow().alerts().firing_count(), 0u);
  // The health tree covers every switch of the 2×4 fabric.
  const telemetry::HealthTree& h = farm.scarecrow().health();
  EXPECT_TRUE(h.has_node("spines"));
  EXPECT_TRUE(h.has_node("pod0"));
  EXPECT_TRUE(h.has_node("spine0"));
  EXPECT_TRUE(h.has_node("spine1"));
  EXPECT_TRUE(h.has_node("leaf0"));
  EXPECT_TRUE(h.has_node("leaf3"));
  // ...and the rollup is published as a live gauge.
  MetricId m = farm.telemetry().registry().find("health.fabric");
  ASSERT_NE(m, kInvalidMetric);
  EXPECT_DOUBLE_EQ(farm.telemetry().registry().value(m), 1);
}

TEST(Scarecrow, DisabledConfigDoesNotStartTheEvaluator) {
  core::FarmSystemConfig config = small_config();
  config.scarecrow.eval_period = Duration{};
  core::FarmSystem farm(config);
  EXPECT_FALSE(farm.scarecrow().running());
  farm.run_for(Duration::ms(300));
  EXPECT_EQ(farm.scarecrow().alerts().evaluations(), 0u);
}

TEST(Scarecrow, ExtraConfigRulesAreInstalled) {
  core::FarmSystemConfig config = small_config();
  config.scarecrow.rules = {"mine: value(bus.up.lag_ms) > 1",
                            "broken rule without colon-measure"};
  core::FarmSystem farm(config);
  const auto& rules = farm.scarecrow().alerts().rules();
  ASSERT_EQ(rules.size(), core::Scarecrow::default_rules().size() + 1);
  EXPECT_EQ(rules.back().name, "mine");
}

TEST(Scarecrow, SystemReportsRenderAfterARun) {
  core::FarmSystem farm(small_config());
  farm.run_for(Duration::ms(500));
  std::ostringstream text;
  farm.write_farm_report(text);
  EXPECT_NE(text.str().find("farm report"), std::string::npos);
  EXPECT_NE(text.str().find("fabric"), std::string::npos);
  // The Furrow section rides along: system construction ran the placement
  // solver under the (default-enabled) profiler.
  EXPECT_NE(text.str().find("control-plane profile"), std::string::npos);
  std::ostringstream json;
  farm.write_farm_report_json(json);
  expect_balanced_json(json.str());
  EXPECT_NE(json.str().find("\"health\""), std::string::npos);
  EXPECT_NE(json.str().find("\"profile\""), std::string::npos);
}


// Each chassis names its PCIe bus's metrics after its switch: the registry
// holds no metric of a switch that does not exist, and the default
// pcie-saturated rule watches every switch exactly once.
TEST(Scarecrow, PcieRuleWatchesEachSwitchOnce) {
  core::FarmSystem farm(small_config());
  farm.run_for(Duration::ms(500));
  const Registry& reg = farm.telemetry().registry();
  for (MetricId id = 0; id < reg.size(); ++id)
    EXPECT_NE(reg.name(id).rfind("pcie.bus.", 0), 0u) << reg.name(id);
  const AlertManager& mgr = farm.scarecrow().alerts();
  std::vector<std::string> watched, switches;
  for (const Alert& a : mgr.alerts())
    if (mgr.rules()[a.rule].name == "pcie-saturated")
      watched.emplace_back(label_component(reg.name(a.metric), 1));
  for (net::NodeId n : farm.topology().switches())
    switches.push_back(farm.topology().node(n).name);
  std::sort(watched.begin(), watched.end());
  std::sort(switches.begin(), switches.end());
  EXPECT_EQ(watched, switches);
}

}  // namespace
}  // namespace farm::telemetry

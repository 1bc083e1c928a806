// Tests for the collection-centric baselines: sFlow and Sonata/Newton.
#include <gtest/gtest.h>

#include <memory>

#include "asic/driver.h"
#include "baselines/sflow.h"
#include "baselines/sonata.h"

namespace farm::baselines {
namespace {

using net::Ipv4;
using sim::Duration;
using sim::Engine;
using sim::TimePoint;

struct Rig {
  Engine engine;
  net::SpineLeaf sl =
      net::build_spine_leaf({.spines = 2, .leaves = 4, .hosts_per_leaf = 2});
  std::vector<std::unique_ptr<asic::SwitchChassis>> chassis;
  std::vector<asic::SwitchChassis*> by_node;

  Rig() {
    by_node.assign(sl.topo.node_count(), nullptr);
    for (auto n : sl.topo.switches()) {
      asic::SwitchConfig cfg;
      cfg.n_ifaces =
          std::max<int>(8, static_cast<int>(sl.topo.neighbors(n).size()));
      chassis.push_back(std::make_unique<asic::SwitchChassis>(
          engine, n, sl.topo.node(n).name, cfg, n));
      by_node[n] = chassis.back().get();
    }
  }

  net::FlowSchedule elephant(double rate_bps) {
    net::FlowSchedule sched;
    net::FlowSpec f;
    f.key = {*sl.topo.node(sl.hosts_by_leaf[0][0]).address,
             *sl.topo.node(sl.hosts_by_leaf[1][0]).address, 4000, 443,
             net::Proto::kTcp};
    f.rate_bps = rate_bps;
    f.packet_bytes = 1400;
    sched.add_forever(TimePoint::origin(), f);
    return sched;
  }
};

TEST(SflowTest, AgentsExportPerPortRecords) {
  Rig rig;
  SflowCollector collector(rig.engine);
  std::vector<std::unique_ptr<SflowAgent>> agents;
  for (auto n : rig.sl.topo.switches()) {
    agents.push_back(std::make_unique<SflowAgent>(
        rig.engine, *rig.by_node[n], collector, SflowConfig{}));
    agents.back()->start();
  }
  rig.engine.run_for(Duration::sec(1));
  // 6 switches × 8 ports × 10 probes/sec ≈ 480 records.
  EXPECT_GT(collector.records_processed(), 400u);
  EXPECT_GT(collector.ingress_bytes(), 400u * 100);
}

TEST(SflowTest, CollectorLoadGrowsLinearlyWithPorts) {
  auto run = [](int ports) {
    Engine engine;
    asic::SwitchConfig cfg;
    cfg.n_ifaces = ports;
    asic::SwitchChassis sw(engine, 0, "sw", cfg, 0);
    SflowCollector collector(engine);
    SflowAgent agent(engine, sw, collector,
                     SflowConfig{.probe_period = Duration::ms(10)});
    agent.start();
    engine.run_for(Duration::sec(1));
    return collector.ingress_bytes();
  };
  auto small = run(16);
  auto large = run(64);
  EXPECT_NEAR(static_cast<double>(large) / static_cast<double>(small), 4.0,
              0.8);
}

TEST(SflowTest, DetectsHeavyHitterAfterProbePeriod) {
  Rig rig;
  SflowCollector collector(rig.engine);
  // 100 ms probes; threshold 1 MB per period; 800 Mbps flow = 10 MB/period.
  collector.set_hh_threshold(1'000'000);
  std::vector<std::unique_ptr<SflowAgent>> agents;
  for (auto n : rig.sl.topo.switches()) {
    agents.push_back(std::make_unique<SflowAgent>(
        rig.engine, *rig.by_node[n], collector,
        SflowConfig{.probe_period = Duration::ms(100)}));
    agents.back()->start();
  }
  asic::TrafficDriver driver(rig.engine, rig.sl.topo, rig.by_node,
                             rig.elephant(800e6), Duration::ms(1));
  driver.start();
  rig.engine.run_for(Duration::sec(1));
  ASSERT_FALSE(collector.detections().empty());
  // Needs two samples of the counter: detection lands after ≥ ~2 probe
  // periods but well under a second.
  double at = collector.detections()[0].at.seconds();
  EXPECT_GT(at, 0.1);
  EXPECT_LT(at, 0.5);
}

TEST(SonataTest, QueryReducesAndProcessorDetects) {
  Rig rig;
  SonataProcessor processor(rig.engine, SonataConfig{});
  processor.set_hh_threshold(10'000'000);  // 10 MB per window
  processor.start();
  std::vector<std::unique_ptr<SonataQuery>> queries;
  for (auto n : rig.sl.topo.switches()) {
    queries.push_back(std::make_unique<SonataQuery>(
        rig.engine, *rig.by_node[n], processor, net::Filter{},
        SonataConfig{}));
    queries.back()->start();
  }
  asic::TrafficDriver driver(rig.engine, rig.sl.topo, rig.by_node,
                             rig.elephant(800e6), Duration::ms(1));
  driver.start();
  rig.engine.run_for(Duration::sec(6));
  ASSERT_FALSE(processor.detections().empty());
  // Window (1 s) + micro-batch (2 s) + processing: seconds, not millis.
  EXPECT_GT(processor.detections()[0].at.seconds(), 1.0);
  EXPECT_GT(processor.tuples_processed(), 0u);
}

TEST(SonataTest, AggregationFactorShrinksExportVolume) {
  auto run = [](double aggregation) {
    Rig rig;
    SonataConfig cfg;
    cfg.aggregation_factor = aggregation;
    SonataProcessor processor(rig.engine, cfg);
    processor.start();
    SonataQuery query(rig.engine, *rig.by_node[rig.sl.leaf_switches[0]],
                      processor, net::Filter{}, cfg);
    query.start();
    asic::TrafficDriver driver(rig.engine, rig.sl.topo, rig.by_node,
                               rig.elephant(400e6), Duration::ms(1));
    driver.start();
    rig.engine.run_for(Duration::sec(5));
    return query.tuples_exported();
  };
  auto strong = run(0.75);
  auto weak = run(0.0);
  EXPECT_GT(weak, strong * 3);
}

TEST(NewtonTest, DynamicInstallAndRemove) {
  Rig rig;
  SonataProcessor processor(rig.engine, SonataConfig{});
  processor.start();
  NewtonQueryManager newton(rig.engine, processor);
  auto* sw = rig.by_node[rig.sl.leaf_switches[0]];
  int q1 = newton.install(*sw, net::Filter::l4_port(443));
  int q2 = newton.install(*sw, net::Filter::proto(net::Proto::kUdp));
  EXPECT_EQ(newton.active_queries(), 2u);
  // Mirror rules present on the switch.
  int mirrors = 0;
  for (const auto& r : sw->tcam().rules())
    if (r.action == asic::RuleAction::kMirror) ++mirrors;
  EXPECT_EQ(mirrors, 2);
  newton.uninstall(q1);
  EXPECT_EQ(newton.active_queries(), 1u);
  mirrors = 0;
  for (const auto& r : sw->tcam().rules())
    if (r.action == asic::RuleAction::kMirror) ++mirrors;
  EXPECT_EQ(mirrors, 1);
  newton.uninstall(q2);
  rig.engine.run_for(Duration::sec(1));  // no dangling callbacks
}

}  // namespace
}  // namespace farm::baselines

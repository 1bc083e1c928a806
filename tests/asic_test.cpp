// Tests for the switch ASIC substrate: TCAM, PCIe bus, chassis, driver.
#include <gtest/gtest.h>

#include "asic/driver.h"
#include "asic/pcie.h"
#include "asic/switch.h"
#include "asic/tcam.h"
#include "telemetry/prof.h"

namespace farm::asic {
namespace {

using net::Filter;
using net::FlowSpec;
using net::Ipv4;
using net::PacketHeader;
using net::Prefix;
using net::Proto;
using sim::Duration;
using sim::Engine;
using sim::TimePoint;

PacketHeader mk_packet(Ipv4 src, Ipv4 dst, std::uint16_t dport) {
  return {src, dst, 40000, dport, Proto::kTcp, {}, 1000};
}

TEST(TcamTest, RegionCapacityIsFenced) {
  Tcam tcam(10, 4);
  EXPECT_EQ(tcam.capacity(TcamRegion::kMonitoring), 4);
  EXPECT_EQ(tcam.capacity(TcamRegion::kForwarding), 6);
  for (int i = 0; i < 4; ++i) {
    TcamRule r;
    r.region = TcamRegion::kMonitoring;
    r.pattern = Filter::l4_port(static_cast<std::uint16_t>(80 + i));
    EXPECT_TRUE(tcam.add_rule(r)) << i;
  }
  TcamRule overflow;
  overflow.region = TcamRegion::kMonitoring;
  overflow.pattern = Filter::l4_port(99);
  EXPECT_FALSE(tcam.add_rule(overflow));
  // Forwarding region unaffected by monitoring exhaustion.
  overflow.region = TcamRegion::kForwarding;
  EXPECT_TRUE(tcam.add_rule(overflow));
}

TEST(TcamTest, HighestPriorityWins) {
  Tcam tcam(10, 10);
  TcamRule lo, hi;
  lo.pattern = Filter::dst_ip(*Prefix::parse("10.0.0.0/8"));
  lo.priority = 1;
  lo.action = RuleAction::kForward;
  hi.pattern = Filter::dst_ip(*Prefix::parse("10.1.0.0/16"));
  hi.priority = 5;
  hi.action = RuleAction::kDrop;
  tcam.add_rule(lo);
  tcam.add_rule(hi);
  auto* m = tcam.match(mk_packet(Ipv4(1, 1, 1, 1), Ipv4(10, 1, 2, 3), 80));
  ASSERT_TRUE(m);
  EXPECT_EQ(m->action, RuleAction::kDrop);
  auto* m2 = tcam.match(mk_packet(Ipv4(1, 1, 1, 1), Ipv4(10, 2, 2, 3), 80));
  ASSERT_TRUE(m2);
  EXPECT_EQ(m2->action, RuleAction::kForward);
}

TEST(TcamTest, RemoveByPatternAndById) {
  Tcam tcam(10, 10);
  TcamRule r;
  r.pattern = Filter::l4_port(443);
  auto id = tcam.add_rule(r);
  ASSERT_TRUE(id);
  EXPECT_TRUE(tcam.find(*id));
  EXPECT_EQ(tcam.remove_rules(Filter::l4_port(443), TcamRegion::kMonitoring),
            1);
  EXPECT_FALSE(tcam.find(*id));
  EXPECT_FALSE(tcam.remove_rule(*id));
}

TEST(PcieBusTest, TransferTimeMatchesBandwidth) {
  Engine e;
  // 8 Mbps, no overhead: 1000 entries × kStatEntryBytes × 8 bits.
  PcieBus bus(e, "pcie.test", 8e6, Duration{});
  const auto expected = Duration::from_seconds(
      1000.0 * sim::cost::kStatEntryBytes * 8 / 8e6);
  bool done = false;
  bus.request(1000, [&] { done = true; });
  e.run_for(expected - Duration::us(10));
  EXPECT_FALSE(done);
  e.run_for(Duration::us(20));
  EXPECT_TRUE(done);
}

TEST(PcieBusTest, RequestsSerialize) {
  Engine e;
  PcieBus bus(e, "pcie.test", 8e6, Duration{});
  const auto one = Duration::from_seconds(
      1000.0 * sim::cost::kStatEntryBytes * 8 / 8e6);
  int done = 0;
  bus.request(1000, [&] { ++done; });
  bus.request(1000, [&] { ++done; });  // completes after 2× one
  e.run_for(one + one / 2);
  EXPECT_EQ(done, 1);
  EXPECT_GT(bus.backlog(), Duration{});
  e.run_for(one);
  EXPECT_EQ(done, 2);
}

TEST(PcieBusTest, BacklogGrowsWhenOversubscribed) {
  Engine e;
  PcieBus bus(e, "pcie.test", 8e6, Duration{});
  for (int i = 0; i < 100; ++i) bus.request(1000, {});
  const auto one = Duration::from_seconds(
      1000.0 * sim::cost::kStatEntryBytes * 8 / 8e6);
  EXPECT_GT(bus.backlog(), one * 95);
  EXPECT_EQ(bus.bytes_transferred(),
            100u * 1000 * sim::cost::kStatEntryBytes);
}

SwitchConfig small_config() {
  SwitchConfig c;
  c.n_ifaces = 8;
  c.cpu_cores = 4;
  return c;
}

TEST(SwitchTest, FlowUpdatesPortCounters) {
  Engine e;
  SwitchChassis sw(e, 0, "sw0", small_config(), 1);
  FlowSpec f;
  f.key = {Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 100, 200, Proto::kTcp};
  f.rate_bps = 8e6;  // 1 MB/s
  f.packet_bytes = 1000;
  HopMatch m;
  sw.apply_flow(f, 2, 5, Duration::ms(100), m);
  EXPECT_EQ(sw.port_stats(2).rx_bytes, 100'000u);
  EXPECT_EQ(sw.port_stats(5).tx_bytes, 100'000u);
  EXPECT_EQ(sw.port_stats(2).rx_packets, 100u);
  EXPECT_EQ(sw.port_stats(3).rx_bytes, 0u);
}

TEST(SwitchTest, DropRuleZeroesForwardedRate) {
  Engine e;
  SwitchChassis sw(e, 0, "sw0", small_config(), 1);
  TcamRule r;
  r.pattern = Filter::dst_ip(Prefix::host(Ipv4(2, 2, 2, 2)));
  r.action = RuleAction::kDrop;
  r.region = TcamRegion::kForwarding;
  sw.tcam().add_rule(r);
  FlowSpec f;
  f.key = {Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 100, 200, Proto::kTcp};
  f.rate_bps = 8e6;
  HopMatch m;
  double out = sw.apply_flow(f, 0, 1, Duration::ms(100), m);
  EXPECT_EQ(out, 0);
  // rx counted (traffic arrived), tx not (dropped).
  EXPECT_GT(sw.port_stats(0).rx_bytes, 0u);
  EXPECT_EQ(sw.port_stats(1).tx_bytes, 0u);
  // Rule hit counters account the arriving traffic.
  EXPECT_GT(sw.tcam().rules()[0].hit_bytes, 0u);
}

TEST(SwitchTest, RateLimitCapsForwardedRate) {
  Engine e;
  SwitchChassis sw(e, 0, "sw0", small_config(), 1);
  TcamRule r;
  r.pattern = Filter::dst_ip(Prefix::host(Ipv4(2, 2, 2, 2)));
  r.action = RuleAction::kRateLimit;
  r.rate_limit_bps = 1e6;
  sw.tcam().add_rule(r);
  FlowSpec f;
  f.key = {Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 100, 200, Proto::kTcp};
  f.rate_bps = 8e6;
  HopMatch m;
  EXPECT_DOUBLE_EQ(sw.apply_flow(f, 0, 1, Duration::ms(10), m), 1e6);
  f.rate_bps = 0.5e6;  // below the cap: untouched
  EXPECT_DOUBLE_EQ(sw.apply_flow(f, 0, 1, Duration::ms(10), m), 0.5e6);
}

TEST(SwitchTest, SamplerSeesExpectedFraction) {
  Engine e;
  SwitchChassis sw(e, 0, "sw0", small_config(), 1);
  std::uint64_t sampled = 0;
  sw.add_sampler(0.01, Filter(), [&](const PacketHeader&, std::uint64_t n) {
    sampled += n;
  });
  FlowSpec f;
  f.key = {Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 100, 200, Proto::kTcp};
  f.rate_bps = 8e8;  // 100k packets/s at 1000 B
  f.packet_bytes = 1000;
  HopMatch m;
  for (int i = 0; i < 100; ++i) sw.apply_flow(f, 0, 1, Duration::ms(10), m);
  // 100k packets total, 1% ≈ 1000 samples.
  EXPECT_NEAR(static_cast<double>(sampled), 1000, 20);
}

TEST(SwitchTest, MirrorRuleDeliversFullTraffic) {
  Engine e;
  SwitchChassis sw(e, 0, "sw0", small_config(), 1);
  TcamRule r;
  r.pattern = Filter::l4_port(80);
  r.action = RuleAction::kMirror;
  sw.tcam().add_rule(r);
  std::uint64_t mirrored = 0;
  sw.add_mirror_subscriber(
      [&](const PacketHeader&, std::uint64_t n) { mirrored += n; });
  FlowSpec f;
  f.key = {Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 40000, 80, Proto::kTcp};
  f.rate_bps = 8e6;
  f.packet_bytes = 1000;
  HopMatch m;
  double out = sw.apply_flow(f, 0, 1, Duration::ms(100), m);
  EXPECT_DOUBLE_EQ(out, 8e6);  // mirroring does not affect forwarding
  EXPECT_EQ(mirrored, 100u);
}

TEST(SwitchTest, RemovedSamplerStopsReceiving) {
  Engine e;
  SwitchChassis sw(e, 0, "sw0", small_config(), 1);
  std::uint64_t n1 = 0;
  auto id = sw.add_sampler(1.0, Filter(),
                           [&](const PacketHeader&, std::uint64_t n) {
                             n1 += n;
                           });
  FlowSpec f;
  f.key = {Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 100, 200, Proto::kTcp};
  f.rate_bps = 8e6;
  f.packet_bytes = 1000;
  HopMatch m;
  sw.apply_flow(f, 0, 1, Duration::ms(10), m);
  auto before = n1;
  EXPECT_GT(before, 0u);
  sw.remove_sampler(id);
  sw.apply_flow(f, 0, 1, Duration::ms(10), m);
  EXPECT_EQ(n1, before);
}

// End-to-end: a drop rule installed mid-path quenches delivery downstream.
TEST(TrafficDriverTest, DropRuleQuenchesDownstreamDelivery) {
  Engine e;
  auto sl =
      net::build_spine_leaf({.spines = 1, .leaves = 2, .hosts_per_leaf = 1});
  std::vector<SwitchChassis*> by_node(sl.topo.node_count(), nullptr);
  std::vector<std::unique_ptr<SwitchChassis>> owned;
  for (auto n : sl.topo.switches()) {
    SwitchConfig c;
    c.n_ifaces = static_cast<int>(sl.topo.neighbors(n).size());
    owned.push_back(
        std::make_unique<SwitchChassis>(e, n, sl.topo.node(n).name, c, n));
    by_node[n] = owned.back().get();
  }
  Ipv4 src = *sl.topo.node(sl.hosts_by_leaf[0][0]).address;
  Ipv4 dst = *sl.topo.node(sl.hosts_by_leaf[1][0]).address;
  net::FlowSchedule sched;
  FlowSpec f;
  f.key = {src, dst, 1000, 80, Proto::kTcp};
  f.rate_bps = 8e6;
  sched.add_forever(TimePoint::origin(), f);

  TrafficDriver driver(e, sl.topo, by_node, sched, Duration::ms(1));
  driver.start();
  e.run_for(Duration::ms(100));
  auto delivered_before = driver.bytes_delivered_to(sl.hosts_by_leaf[1][0]);
  EXPECT_GT(delivered_before, 0u);

  // Install a drop at the spine (mid-path reaction).
  TcamRule r;
  r.pattern = Filter::dst_ip(Prefix::host(dst));
  r.action = RuleAction::kDrop;
  by_node[sl.spine_switches[0]]->tcam().add_rule(r);
  e.run_for(Duration::ms(100));
  auto delivered_after = driver.bytes_delivered_to(sl.hosts_by_leaf[1][0]);
  EXPECT_EQ(delivered_after, delivered_before);  // nothing more arrived
  // The leaf upstream of the spine still saw the traffic arriving.
  EXPECT_GT(by_node[sl.spine_switches[0]]->tcam().rules()[0].hit_bytes, 0u);
}

TEST(TrafficDriverTest, CountersAccumulateAlongPath) {
  Engine e;
  auto sl =
      net::build_spine_leaf({.spines = 2, .leaves = 2, .hosts_per_leaf = 1});
  std::vector<SwitchChassis*> by_node(sl.topo.node_count(), nullptr);
  std::vector<std::unique_ptr<SwitchChassis>> owned;
  for (auto n : sl.topo.switches()) {
    SwitchConfig c;
    c.n_ifaces = static_cast<int>(sl.topo.neighbors(n).size());
    owned.push_back(
        std::make_unique<SwitchChassis>(e, n, sl.topo.node(n).name, c, n));
    by_node[n] = owned.back().get();
  }
  Ipv4 src = *sl.topo.node(sl.hosts_by_leaf[0][0]).address;
  Ipv4 dst = *sl.topo.node(sl.hosts_by_leaf[1][0]).address;
  net::FlowSchedule sched;
  FlowSpec f;
  f.key = {src, dst, 1000, 80, Proto::kTcp};
  f.rate_bps = 80e6;  // 10 MB/s
  sched.add_forever(TimePoint::origin(), f);
  TrafficDriver driver(e, sl.topo, by_node, sched, Duration::ms(1));
  driver.start();
  e.run_for(Duration::sec(1));
  // Both leaves carried the flow (one spine was chosen deterministically).
  std::uint64_t leaf0_rx = 0;
  auto* leaf0 = by_node[sl.leaf_switches[0]];
  for (int i = 0; i < leaf0->n_ifaces(); ++i)
    leaf0_rx += leaf0->port_stats(i).rx_bytes;
  EXPECT_NEAR(static_cast<double>(leaf0_rx), 10e6, 2e5);
  EXPECT_NEAR(static_cast<double>(
                  driver.bytes_delivered_to(sl.hosts_by_leaf[1][0])),
              10e6, 2e5);
}

// Furrow's data-plane scope: one `asic/traffic_tick` closure per tick.
TEST(TrafficDriverTest, TickScopeCountsEveryTick) {
  auto& prof = telemetry::prof::Profiler::instance();
  prof.set_enabled(true);
  prof.reset();
  Engine e;
  auto sl =
      net::build_spine_leaf({.spines = 1, .leaves = 2, .hosts_per_leaf = 1});
  std::vector<SwitchChassis*> by_node(sl.topo.node_count(), nullptr);
  TrafficDriver driver(e, sl.topo, by_node, net::FlowSchedule{},
                       Duration::ms(1));
  driver.start();
  e.run_for(Duration::ms(250));
  std::uint64_t ticks = 0;
  for (const auto& asic : prof.snapshot().root.children)
    if (asic.name == "asic")
      for (const auto& scope : asic.children)
        if (scope.name == "traffic_tick") ticks = scope.count;
  EXPECT_EQ(ticks, 250u);
}

}  // namespace
}  // namespace farm::asic

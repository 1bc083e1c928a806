// Tests for IP/prefix parsing, filters (incl. φ_enc polling subjects),
// topology/path oracle, and traffic generators.
#include <gtest/gtest.h>

#include <set>

#include "net/filter.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "tick_reference.h"

namespace farm::net {
namespace {

using util::Duration;
using util::Rng;
using util::TimePoint;
using asic::ref::active_at;

TEST(Ipv4Test, ParseAndFormatRoundTrip) {
  auto ip = Ipv4::parse("10.1.2.4");
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->to_string(), "10.1.2.4");
  EXPECT_EQ(*ip, Ipv4(10, 1, 2, 4));
}

TEST(Ipv4Test, RejectsMalformed) {
  EXPECT_FALSE(Ipv4::parse(""));
  EXPECT_FALSE(Ipv4::parse("10.1.2"));
  EXPECT_FALSE(Ipv4::parse("10.1.2.256"));
  EXPECT_FALSE(Ipv4::parse("10.1.2.3.4"));
  EXPECT_FALSE(Ipv4::parse("a.b.c.d"));
  EXPECT_FALSE(Ipv4::parse("10.1.2.3x"));
}

TEST(PrefixTest, ParseAndContains) {
  auto p = Prefix::parse("10.0.1.0/24");
  ASSERT_TRUE(p);
  EXPECT_TRUE(p->contains(*Ipv4::parse("10.0.1.77")));
  EXPECT_FALSE(p->contains(*Ipv4::parse("10.0.2.1")));
  EXPECT_EQ(p->to_string(), "10.0.1.0/24");
}

TEST(PrefixTest, BareAddressIsHostPrefix) {
  auto p = Prefix::parse("10.1.1.4");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->length(), 32);
  EXPECT_TRUE(p->contains(Ipv4(10, 1, 1, 4)));
  EXPECT_FALSE(p->contains(Ipv4(10, 1, 1, 5)));
}

TEST(PrefixTest, MasksHostBits) {
  Prefix p(Ipv4(10, 1, 1, 77), 24);
  EXPECT_EQ(p.address(), Ipv4(10, 1, 1, 0));
}

TEST(PrefixTest, AnyMatchesEverything) {
  EXPECT_TRUE(Prefix::any().contains(Ipv4(1, 2, 3, 4)));
  EXPECT_TRUE(Prefix::any().contains(Ipv4(255, 255, 255, 255)));
}

TEST(PrefixTest, ContainmentAndOverlap) {
  Prefix wide(Ipv4(10, 0, 0, 0), 8), narrow(Ipv4(10, 1, 0, 0), 16);
  Prefix other(Ipv4(11, 0, 0, 0), 8);
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
  EXPECT_TRUE(wide.overlaps(narrow));
  EXPECT_FALSE(wide.overlaps(other));
}

PacketHeader mk_packet(const char* src, const char* dst, std::uint16_t sport,
                       std::uint16_t dport, Proto proto = Proto::kTcp) {
  return {*Ipv4::parse(src), *Ipv4::parse(dst), sport, dport, proto, {}, 1000};
}

TEST(FilterTest, AtomMatching) {
  auto h = mk_packet("10.1.1.4", "10.0.1.9", 4242, 443);
  EXPECT_TRUE(Filter::src_ip(*Prefix::parse("10.1.1.4")).matches(h));
  EXPECT_FALSE(Filter::src_ip(*Prefix::parse("10.1.1.5")).matches(h));
  EXPECT_TRUE(Filter::dst_ip(*Prefix::parse("10.0.1.0/24")).matches(h));
  EXPECT_TRUE(Filter::l4_port(443).matches(h));
  EXPECT_TRUE(Filter::l4_port(4242).matches(h));
  EXPECT_FALSE(Filter::l4_port(80).matches(h));
  EXPECT_TRUE(Filter::proto(Proto::kTcp).matches(h));
  EXPECT_FALSE(Filter::proto(Proto::kUdp).matches(h));
}

TEST(FilterTest, BooleanCombinations) {
  auto h = mk_packet("10.1.1.4", "10.0.1.9", 4242, 443);
  auto f = Filter::conj(Filter::src_ip(*Prefix::parse("10.1.1.4")),
                        Filter::dst_ip(*Prefix::parse("10.0.1.0/24")));
  EXPECT_TRUE(f.matches(h));
  auto g = Filter::disj(Filter::l4_port(80), Filter::l4_port(22));
  EXPECT_FALSE(g.matches(h));
  EXPECT_TRUE(Filter::negate(g).matches(h));
  auto both = Filter::conj(f, Filter::negate(g));
  EXPECT_TRUE(both.matches(h));
}

TEST(FilterTest, TrueFilterMatchesAll) {
  Filter t;
  EXPECT_TRUE(t.is_true());
  EXPECT_TRUE(t.matches(mk_packet("1.2.3.4", "5.6.7.8", 1, 2)));
}

TEST(FilterTest, CanonicalKeyIsOrderInsensitive) {
  auto a = Filter::src_ip(*Prefix::parse("10.0.0.0/8"));
  auto b = Filter::l4_port(443);
  EXPECT_EQ(Filter::conj(a, b).canonical_key(),
            Filter::conj(b, a).canonical_key());
  EXPECT_NE(a.canonical_key(), b.canonical_key());
}

TEST(FilterTest, PollingSubjectsSplitDisjuncts) {
  auto a = Filter::l4_port(80);
  auto b = Filter::l4_port(22);
  auto f = Filter::disj(a, b);
  auto subjects = f.polling_subjects();
  EXPECT_EQ(subjects.size(), 2u);
  // Shared disjunct ⇒ shared subject with another filter using port 80.
  auto other = Filter::disj(a, Filter::l4_port(8080));
  auto s2 = other.polling_subjects();
  std::set<std::string> set1(subjects.begin(), subjects.end());
  int shared = 0;
  for (const auto& s : s2) shared += set1.count(s);
  EXPECT_EQ(shared, 1);
}

TEST(FilterTest, DnfDistributesConjunctionOverDisjunction) {
  // (p80 or p22) and src10/8 → two conjuncts.
  auto f = Filter::conj(Filter::disj(Filter::l4_port(80), Filter::l4_port(22)),
                        Filter::src_ip(*Prefix::parse("10.0.0.0/8")));
  EXPECT_EQ(f.polling_subjects().size(), 2u);
  auto h80 = mk_packet("10.9.9.9", "11.0.0.1", 5000, 80);
  auto h22 = mk_packet("10.9.9.9", "11.0.0.1", 5000, 22);
  auto h443 = mk_packet("10.9.9.9", "11.0.0.1", 5000, 443);
  EXPECT_TRUE(f.matches(h80));
  EXPECT_TRUE(f.matches(h22));
  EXPECT_FALSE(f.matches(h443));
}

TEST(FilterTest, NegationUsesDeMorganInDnf) {
  // not (p80 or p22) == (not p80) and (not p22): one conjunct.
  auto f = Filter::negate(
      Filter::disj(Filter::l4_port(80), Filter::l4_port(22)));
  EXPECT_EQ(f.polling_subjects().size(), 1u);
  EXPECT_TRUE(f.matches(mk_packet("1.1.1.1", "2.2.2.2", 5000, 443)));
  EXPECT_FALSE(f.matches(mk_packet("1.1.1.1", "2.2.2.2", 5000, 22)));
}

TEST(FilterTest, IfaceFootprint) {
  EXPECT_EQ(Filter::any_iface().iface_footprint(), Filter::kAllIfaces);
  EXPECT_EQ(Filter::iface(3).iface_footprint(), 1);
  EXPECT_EQ(Filter::conj(Filter::iface(3), Filter::iface(5)).iface_footprint(),
            2);
  EXPECT_EQ(Filter::l4_port(80).iface_footprint(), 0);
}

TEST(TopologyTest, SpineLeafStructure) {
  auto sl = build_spine_leaf({.spines = 2, .leaves = 3, .hosts_per_leaf = 4});
  EXPECT_EQ(sl.spine_switches.size(), 2u);
  EXPECT_EQ(sl.leaf_switches.size(), 3u);
  EXPECT_EQ(sl.topo.switches().size(), 5u);
  EXPECT_EQ(sl.topo.hosts().size(), 12u);
  // Every leaf connects to every spine.
  for (auto leaf : sl.leaf_switches) {
    const auto& nb = sl.topo.neighbors(leaf);
    for (auto spine : sl.spine_switches)
      EXPECT_NE(std::find(nb.begin(), nb.end(), spine), nb.end());
  }
}

TEST(TopologyTest, HostAddressing) {
  auto sl = build_spine_leaf({.spines = 2, .leaves = 2, .hosts_per_leaf = 2});
  auto addr = sl.topo.node(sl.hosts_by_leaf[1][0]).address;
  ASSERT_TRUE(addr);
  EXPECT_EQ(addr->to_string(), "10.1.1.1");
  auto found = sl.topo.host_by_address(*addr);
  ASSERT_TRUE(found);
  EXPECT_EQ(*found, sl.hosts_by_leaf[1][0]);
  // Leaf subnet lookup.
  auto in_leaf0 = sl.topo.hosts_in(*Prefix::parse("10.0.0.0/16"));
  EXPECT_EQ(in_leaf0.size(), 2u);
}

TEST(TopologyTest, ShortestPathWithinLeaf) {
  auto sl = build_spine_leaf({.spines = 2, .leaves = 2, .hosts_per_leaf = 2});
  auto a = sl.hosts_by_leaf[0][0], b = sl.hosts_by_leaf[0][1];
  auto p = sl.topo.shortest_path(a, b);
  ASSERT_EQ(p.size(), 3u);  // host–leaf–host
  EXPECT_EQ(p[1], sl.leaf_switches[0]);
}

TEST(TopologyTest, AllShortestPathsUsesEcmp) {
  auto sl = build_spine_leaf({.spines = 3, .leaves = 2, .hosts_per_leaf = 1});
  auto a = sl.hosts_by_leaf[0][0], b = sl.hosts_by_leaf[1][0];
  auto paths = sl.topo.all_shortest_paths(a, b);
  EXPECT_EQ(paths.size(), 3u);  // one per spine
  for (const auto& p : paths) {
    EXPECT_EQ(p.size(), 5u);  // host-leaf-spine-leaf-host
    EXPECT_EQ(p.front(), a);
    EXPECT_EQ(p.back(), b);
  }
}

TEST(TopologyTest, DisconnectedReturnsEmpty) {
  Topology t;
  auto s1 = t.add_switch("s1");
  auto s2 = t.add_switch("s2");
  EXPECT_TRUE(t.shortest_path(s1, s2).empty());
  EXPECT_TRUE(t.all_shortest_paths(s1, s2).empty());
}

TEST(SdnControllerTest, PathsMatchingPrefixPair) {
  auto sl = build_spine_leaf({.spines = 2, .leaves = 3, .hosts_per_leaf = 2});
  SdnController ctl(sl.topo);
  // leaf0 hosts → leaf1 hosts: 2×2 pairs × 2 ECMP paths.
  auto paths = ctl.paths_matching(*Prefix::parse("10.0.0.0/16"),
                                  *Prefix::parse("10.1.0.0/16"));
  EXPECT_EQ(paths.size(), 8u);
  // Single host pair.
  auto narrow = ctl.paths_matching(*Prefix::parse("10.0.1.1"),
                                   *Prefix::parse("10.1.1.1"));
  EXPECT_EQ(narrow.size(), 2u);
}

TEST(FlowScheduleTest, ActiveWindowRespected) {
  FlowSchedule s;
  FlowSpec f;
  f.key = {Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 10, 20, Proto::kTcp};
  f.rate_bps = 100;
  s.add(TimePoint::origin() + Duration::ms(10),
        TimePoint::origin() + Duration::ms(20), f);
  EXPECT_TRUE(active_at(s, TimePoint::origin()).empty());
  EXPECT_EQ(active_at(s, TimePoint::origin() + Duration::ms(10)).size(), 1u);
  EXPECT_EQ(active_at(s, TimePoint::origin() + Duration::ms(19)).size(), 1u);
  EXPECT_TRUE(active_at(s, TimePoint::origin() + Duration::ms(20)).empty());
}

TEST(TrafficGenTest, HeavyHitterWorkloadChurnsFlows) {
  auto sl = build_spine_leaf({.spines = 2, .leaves = 4, .hosts_per_leaf = 8});
  Rng rng(1);
  auto sched = heavy_hitter_workload(sl.topo, rng, 0.1, 1e9,
                                     Duration::sec(60), Duration::minutes(3));
  // Three epochs' worth of HH flows.
  auto early = active_at(sched, TimePoint::origin() + Duration::sec(5));
  auto late = active_at(sched, TimePoint::origin() + Duration::sec(125));
  EXPECT_FALSE(early.empty());
  EXPECT_FALSE(late.empty());
  EXPECT_NE(early.front().key, late.front().key);  // re-drawn per epoch
  for (const auto& f : early) EXPECT_GT(f.rate_bps, 0.5e9);
}

TEST(TrafficGenTest, DdosConcentratesOnVictim) {
  auto sl = build_spine_leaf({.spines = 2, .leaves = 4, .hosts_per_leaf = 8});
  Rng rng(2);
  Ipv4 victim = *sl.topo.node(sl.hosts_by_leaf[0][0]).address;
  auto sched = ddos_attack(sl.topo, rng, victim, 50, 1e6, TimePoint::origin(),
                           Duration::sec(10));
  auto active = active_at(sched, TimePoint::origin() + Duration::sec(1));
  EXPECT_EQ(active.size(), 50u);
  std::set<std::uint32_t> sources;
  for (const auto& f : active) {
    EXPECT_EQ(f.key.dst_ip, victim);
    sources.insert(f.key.src_ip.value());
  }
  EXPECT_GT(sources.size(), 10u);  // distributed sources
}

TEST(TrafficGenTest, SuperspreaderFansOut) {
  auto sl = build_spine_leaf({.spines = 2, .leaves = 4, .hosts_per_leaf = 8});
  Rng rng(3);
  Ipv4 src = *sl.topo.node(sl.hosts_by_leaf[0][0]).address;
  auto sched = superspreader(sl.topo, rng, src, 40, 1e5, TimePoint::origin(),
                             Duration::sec(10));
  auto active = active_at(sched, TimePoint::origin() + Duration::sec(1));
  std::set<std::uint32_t> dsts;
  for (const auto& f : active) {
    EXPECT_EQ(f.key.src_ip, src);
    dsts.insert(f.key.dst_ip.value());
  }
  EXPECT_GT(dsts.size(), 20u);
}

TEST(TrafficGenTest, PortScanSweepsSequentialPorts) {
  auto sched = port_scan(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1000, 100, 1e4,
                         TimePoint::origin(), Duration::sec(10));
  EXPECT_EQ(sched.size(), 100u);
  // Scan probes are SYNs to increasing ports over time.
  auto first = sched.entries().front().spec;
  auto last = sched.entries().back().spec;
  EXPECT_TRUE(first.flags.syn);
  EXPECT_EQ(first.key.dst_port, 1000);
  EXPECT_EQ(last.key.dst_port, 1099);
}

TEST(TrafficGenTest, SynFloodIsSynOnly) {
  auto sl = build_spine_leaf({.spines = 2, .leaves = 2, .hosts_per_leaf = 4});
  Rng rng(4);
  auto sched = syn_flood(sl.topo, rng, Ipv4(10, 1, 1, 1), 443, 30, 1e6,
                         TimePoint::origin(), Duration::sec(5));
  for (const auto& e : sched.entries()) {
    EXPECT_TRUE(e.spec.flags.syn);
    EXPECT_FALSE(e.spec.flags.ack);
    EXPECT_EQ(e.spec.key.dst_port, 443);
  }
}

TEST(TrafficGenTest, DnsReflectionComesFromPort53) {
  auto sl = build_spine_leaf({.spines = 2, .leaves = 2, .hosts_per_leaf = 4});
  Rng rng(5);
  auto sched = dns_reflection(sl.topo, rng, Ipv4(10, 1, 1, 1), 20, 1e6,
                              TimePoint::origin(), Duration::sec(5));
  for (const auto& e : sched.entries()) {
    EXPECT_EQ(e.spec.key.src_port, 53);
    EXPECT_EQ(e.spec.key.proto, Proto::kUdp);
    EXPECT_GT(e.spec.packet_bytes, 1000u);  // amplification
  }
}

}  // namespace
}  // namespace farm::net

// The traffic tick against the one it replaced (tick_reference.h): twin
// spine-leaf rigs run the same randomized schedule and the same script of
// rule, sampler, link and power changes, and after every tick every rule's
// hit counters, every port's stats, each switch's forwarded bytes, each
// host's delivered bytes and the ordered transcript of sampler and mirror
// callbacks must be equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "asic/driver.h"
#include "tick_reference.h"
#include "util/rng.h"

namespace farm::asic {
namespace {

using net::Filter;
using net::FlowSpec;
using net::Ipv4;
using net::NodeId;
using net::PacketHeader;
using net::Prefix;
using net::Proto;
using sim::Duration;
using sim::TimePoint;

constexpr Duration kTick = Duration::ms(1);

// One sampler or mirror callback: which switch, which registration, what.
struct Delivery {
  NodeId sw;
  SamplerId id;
  PacketHeader header;
  std::uint64_t count;
  bool operator==(const Delivery&) const = default;
};

std::string describe(const Delivery& d) {
  std::ostringstream os;
  os << "sw " << d.sw << " id " << d.id << " " << d.header.to_string()
     << " x" << d.count;
  return os.str();
}

SwitchConfig config_for(const net::Topology& topo, NodeId n) {
  SwitchConfig c;
  c.n_ifaces = std::max<int>(4, static_cast<int>(topo.neighbors(n).size()));
  c.tcam_capacity = 64;
  c.tcam_monitoring_reserved = 32;
  return c;
}

// One side of the twin: a topology, a chassis per switch and a driver.
template <class Chassis, class Driver>
struct Rig {
  sim::Engine engine;
  net::SpineLeaf sl;
  std::vector<std::unique_ptr<Chassis>> owned;
  std::vector<Chassis*> by_node;
  std::unique_ptr<Driver> driver;
  std::vector<Delivery> transcript;

  Rig(const net::SpineLeaf& fabric, const net::FlowSchedule& schedule)
      : sl(fabric), by_node(fabric.topo.node_count(), nullptr) {
    for (NodeId n : sl.topo.switches()) {
      if constexpr (std::is_same_v<Chassis, SwitchChassis>) {
        owned.push_back(std::make_unique<Chassis>(
            engine, n, sl.topo.node(n).name, config_for(sl.topo, n), n));
      } else {
        owned.push_back(std::make_unique<Chassis>(config_for(sl.topo, n)));
      }
      by_node[n] = owned.back().get();
    }
    driver = std::make_unique<Driver>(engine, sl.topo, by_node, schedule,
                                      kTick);
    driver->start();
  }

  SwitchChassis::SampleCallback recorder(NodeId sw, SamplerId* id) {
    return [this, sw, id](const PacketHeader& h, std::uint64_t n) {
      transcript.push_back({sw, *id, h, n});
    };
  }
  // Registration ids are only known after the call returns; the callback
  // reads them through a stable cell.
  std::vector<std::unique_ptr<SamplerId>> ids;
  SamplerId add_sampler(NodeId sw, double p, const Filter& f) {
    ids.push_back(std::make_unique<SamplerId>(0));
    SamplerId* cell = ids.back().get();
    *cell = by_node[sw]->add_sampler(p, f, recorder(sw, cell));
    return *cell;
  }
  SamplerId add_mirror(NodeId sw) {
    ids.push_back(std::make_unique<SamplerId>(0));
    SamplerId* cell = ids.back().get();
    *cell = by_node[sw]->add_mirror_subscriber(recorder(sw, cell));
    return *cell;
  }
};

using Real = Rig<SwitchChassis, TrafficDriver>;
using Ref = Rig<ref::Chassis, ref::Driver>;

// The first observable difference between the twins, or "".
std::string first_difference(const Real& a, const Ref& b) {
  std::ostringstream os;
  for (NodeId n : a.sl.topo.switches()) {
    const SwitchChassis& x = *a.by_node[n];
    const ref::Chassis& y = *b.by_node[n];
    const auto& xr = x.tcam().rules();
    const auto& yr = y.tcam().rules();
    if (xr.size() != yr.size()) {
      os << "sw " << n << ": " << xr.size() << " vs " << yr.size()
         << " rules";
      return os.str();
    }
    for (std::size_t i = 0; i < xr.size(); ++i) {
      auto [packets, bytes] = y.hits(yr[i].id);
      if (xr[i].id != yr[i].id || xr[i].hit_packets != packets ||
          xr[i].hit_bytes != bytes) {
        os << "sw " << n << " rule " << xr[i].id << ": hits "
           << xr[i].hit_packets << "/" << xr[i].hit_bytes << " vs "
           << packets << "/" << bytes;
        return os.str();
      }
    }
    for (int p = 0; p < x.n_ifaces(); ++p) {
      const PortStats& s = x.port_stats(p);
      const PortStats& t = y.port_stats(p);
      if (s.rx_packets != t.rx_packets || s.rx_bytes != t.rx_bytes ||
          s.tx_packets != t.tx_packets || s.tx_bytes != t.tx_bytes) {
        os << "sw " << n << " port " << p << ": rx " << s.rx_bytes << "/"
           << t.rx_bytes << " tx " << s.tx_bytes << "/" << t.tx_bytes;
        return os.str();
      }
    }
    if (x.asic_bytes_forwarded() != y.asic_bytes_forwarded()) {
      os << "sw " << n << ": forwarded " << x.asic_bytes_forwarded()
         << " vs " << y.asic_bytes_forwarded();
      return os.str();
    }
  }
  for (NodeId h : a.sl.topo.hosts())
    if (a.driver->bytes_delivered_to(h) != b.driver->bytes_delivered_to(h)) {
      os << "host " << h << ": delivered " << a.driver->bytes_delivered_to(h)
         << " vs " << b.driver->bytes_delivered_to(h);
      return os.str();
    }
  const std::size_t n = std::min(a.transcript.size(), b.transcript.size());
  for (std::size_t i = 0; i < n; ++i)
    if (!(a.transcript[i] == b.transcript[i])) {
      os << "delivery " << i << ": " << describe(a.transcript[i]) << " vs "
         << describe(b.transcript[i]);
      return os.str();
    }
  if (a.transcript.size() != b.transcript.size()) {
    os << a.transcript.size() << " vs " << b.transcript.size()
       << " deliveries";
    return os.str();
  }
  return "";
}

Ipv4 address_of(const net::SpineLeaf& sl, NodeId host) {
  return *sl.topo.node(host).address;
}

// A filter over header fields only (sampler filters name no interface).
Filter header_filter(const net::SpineLeaf& sl, util::Rng& rng) {
  auto hosts = sl.topo.hosts();
  auto host = [&] { return hosts[rng.next_below(hosts.size())]; };
  switch (rng.next_below(6)) {
    case 0:
      return Filter::dst_ip(Prefix::host(address_of(sl, host())));
    case 1:
      return Filter::src_ip(
          Prefix(Ipv4(10, static_cast<std::uint8_t>(rng.next_below(3)), 0, 0),
                 16));
    case 2:
      return Filter::dst_port(80, 443);
    case 3:
      return Filter::l4_port(22);
    case 4:
      return Filter::proto(Proto::kUdp);
    default:
      return Filter::conj(Filter::proto(Proto::kTcp),
                          Filter::negate(Filter::dst_port(22, 22)));
  }
}

// Rule patterns sometimes pin the ingress interface.
Filter rule_filter(const net::SpineLeaf& sl, util::Rng& rng) {
  Filter f = rng.next_below(5) == 0 ? Filter() : header_filter(sl, rng);
  if (rng.next_below(3) == 0)
    f = Filter::conj(
        f, Filter::iface(static_cast<std::int32_t>(rng.next_below(4))));
  return f;
}

net::FlowSchedule random_schedule(const net::SpineLeaf& sl, util::Rng& rng,
                                  int ticks) {
  auto hosts = sl.topo.hosts();
  auto host = [&] {
    return address_of(sl, hosts[rng.next_below(hosts.size())]);
  };
  auto at = [](double ms) {
    return TimePoint::origin() + Duration::from_seconds(ms / 1000.0);
  };
  net::FlowSchedule s;
  std::vector<FlowSpec> keys;
  for (int i = 0; i < 48; ++i) {
    FlowSpec f;
    if (!keys.empty() && rng.next_below(5) == 0) {
      f = keys[rng.next_below(keys.size())];  // a repeated FlowKey
    } else {
      f.key = {host(), host(),
               static_cast<std::uint16_t>(1000 + rng.next_below(2)),
               std::array<std::uint16_t, 3>{22, 80, 443}[rng.next_below(3)],
               rng.next_below(4) == 0 ? Proto::kUdp : Proto::kTcp};
      if (rng.next_below(10) == 0) f.key.src_ip = Ipv4(192, 168, 0, 1);
      if (rng.next_below(10) == 0) f.key.dst_ip = Ipv4(172, 16, 0, 9);
      f.packet_bytes = std::array<std::uint32_t, 3>{60, 512, 1400}
          [rng.next_below(3)];
      f.flags = {.syn = rng.next_bool(0.3), .ack = rng.next_bool(0.7)};
      // Zero-byte trickles (under one byte per tick) beside real flows.
      f.rate_bps = rng.next_below(6) == 0 ? 4000.0
                                          : rng.next_double(1e5, 2e9);
      keys.push_back(f);
    }
    double start = rng.next_double(0, ticks * 0.8);
    switch (rng.next_below(5)) {
      case 0:
        s.add_forever(at(start), f);
        break;
      case 1: {
        // Shorter than one tick: on a tick instant, or between two.
        double ms = static_cast<double>(rng.next_below(ticks));
        double offset = rng.next_bool(0.5) ? 0.0 : 0.2;
        s.add(at(ms + offset), at(ms + offset + 0.5), f);
        break;
      }
      default:
        s.add(at(start), at(start + rng.next_double(1, ticks / 2.0)), f);
        break;
    }
  }
  return s;
}

// Runs one randomized script on both twins and returns the first tick at
// which they differ, with the difference, or "".
std::string run_script(std::uint64_t seed, int ticks) {
  util::Rng rng(seed);
  const net::SpineLeaf fabric =
      net::build_spine_leaf({.spines = 2, .leaves = 3, .hosts_per_leaf = 2});
  const net::FlowSchedule schedule = random_schedule(fabric, rng, ticks);
  Real real(fabric, schedule);
  Ref ref(fabric, schedule);
  const auto switches = fabric.topo.switches();
  auto any_switch = [&] { return switches[rng.next_below(switches.size())]; };

  std::vector<std::pair<NodeId, SamplerId>> samplers, mirrors;
  for (NodeId n : switches) {
    SamplerId id = real.add_mirror(n);
    if (ref.add_mirror(n) != id) return "mirror ids diverge";
    mirrors.push_back({n, id});
  }

  // One leaf-spine link on a live route goes down and comes back, one
  // switch powers off and back on.
  const NodeId flap_leaf = fabric.leaf_switches[0];
  const NodeId flap_spine = fabric.spine_switches[0];
  const int link_down = ticks / 4, link_up = ticks / 2;
  const NodeId crashed = any_switch();
  const int power_off = ticks / 3, power_on = 2 * ticks / 3;

  for (int t = 0; t < ticks; ++t) {
    if (t == link_down || t == link_up) {
      real.sl.topo.set_link_state(flap_leaf, flap_spine, t == link_up);
      ref.sl.topo.set_link_state(flap_leaf, flap_spine, t == link_up);
    }
    if (t == power_off) {
      real.by_node[crashed]->power_off();
      ref.by_node[crashed]->power_off();
    }
    if (t == power_on) {
      real.by_node[crashed]->power_on();
      ref.by_node[crashed]->power_on();
    }
    const int ops = static_cast<int>(rng.next_below(3));
    for (int k = 0; k < ops; ++k) {
      const NodeId sw = any_switch();
      auto& real_tcam = real.by_node[sw]->tcam();
      auto& ref_tcam = ref.by_node[sw]->tcam();
      switch (rng.next_below(7)) {
        case 0:
        case 1: {  // add a count, drop, rate-limit or mirror rule
          TcamRule r;
          r.pattern = rule_filter(fabric, rng);
          r.action = std::array<RuleAction, 5>{
              RuleAction::kCount, RuleAction::kCount, RuleAction::kDrop,
              RuleAction::kRateLimit, RuleAction::kMirror}[rng.next_below(5)];
          r.rate_limit_bps = rng.next_double(1e5, 1e9);
          r.priority = static_cast<int>(rng.next_below(3));
          r.region = rng.next_bool(0.5) ? TcamRegion::kMonitoring
                                        : TcamRegion::kForwarding;
          if (real_tcam.add_rule(r) != ref_tcam.add_rule(r))
            return "rule ids diverge";
          break;
        }
        case 2: {  // remove a rule, often one before others (indices shift)
          const auto& rules = real_tcam.rules();
          if (rules.empty()) break;
          std::size_t i = rng.next_bool(0.5) ? 0 : rng.next_below(rules.size());
          if (rng.next_bool(0.7)) {
            RuleId id = rules[i].id;
            if (real_tcam.remove_rule(id) != ref_tcam.remove_rule(id))
              return "rule removal diverges";
          } else {
            Filter pattern = rules[i].pattern;
            TcamRegion region = rules[i].region;
            if (real_tcam.remove_rules(pattern, region) !=
                ref_tcam.remove_rules(pattern, region))
              return "pattern removal diverges";
          }
          break;
        }
        case 3:
        case 4: {  // add a filtered or unfiltered sampler
          const double p = std::array<double, 4>{1.0, 1.0, 0.37, 0.01}
              [rng.next_below(4)];
          const Filter f =
              rng.next_bool(0.3) ? Filter() : header_filter(fabric, rng);
          SamplerId id = real.add_sampler(sw, p, f);
          if (ref.add_sampler(sw, p, f) != id) return "sampler ids diverge";
          samplers.push_back({sw, id});
          break;
        }
        case 5: {  // remove a sampler
          if (samplers.empty()) break;
          std::size_t i = rng.next_below(samplers.size());
          auto [node, id] = samplers[i];
          real.by_node[node]->remove_sampler(id);
          ref.by_node[node]->remove_sampler(id);
          samplers.erase(samplers.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
        default: {  // re-subscribe a mirror
          std::size_t i = rng.next_below(mirrors.size());
          auto [node, id] = mirrors[i];
          real.by_node[node]->remove_mirror_subscriber(id);
          ref.by_node[node]->remove_mirror_subscriber(id);
          SamplerId fresh = real.add_mirror(node);
          if (ref.add_mirror(node) != fresh) return "mirror ids diverge";
          mirrors[i] = {node, fresh};
          break;
        }
      }
    }
    real.engine.run_for(kTick);
    ref.engine.run_for(kTick);
    std::string diff = first_difference(real, ref);
    if (!diff.empty()) return "tick " + std::to_string(t) + ": " + diff;
  }
  if (real.transcript.empty()) return "no sampler or mirror ever fired";
  return "";
}

TEST(TickOracle, RandomizedScriptsMatchTheReferenceTick) {
  for (std::uint64_t seed : {1, 2, 3, 4, 5, 6})
    EXPECT_EQ(run_script(seed, 240), "") << "seed " << seed;
}

}  // namespace
}  // namespace farm::asic

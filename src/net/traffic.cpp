#include "net/traffic.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace farm::net {

namespace {

constexpr TimePoint forever() {
  return TimePoint::from_ns(std::numeric_limits<std::int64_t>::max());
}

// Picks a random host address; topology must contain at least one host.
Ipv4 random_host(const Topology& topo, Rng& rng) {
  auto hosts = topo.hosts();
  FARM_CHECK_MSG(!hosts.empty(), "workload requires hosts in the topology");
  NodeId id = hosts[rng.next_below(hosts.size())];
  return *topo.node(id).address;
}

std::uint16_t ephemeral_port(Rng& rng) {
  return static_cast<std::uint16_t>(rng.next_int(32768, 60999));
}

}  // namespace

void FlowSchedule::add(TimePoint start, TimePoint end, FlowSpec spec) {
  FARM_CHECK(start < end);
  flows_.push_back({start, end, std::move(spec)});
}

void FlowSchedule::add_forever(TimePoint start, FlowSpec spec) {
  flows_.push_back({start, forever(), std::move(spec)});
}

void FlowSchedule::append(const FlowSchedule& other) {
  flows_.insert(flows_.end(), other.flows_.begin(), other.flows_.end());
}

FlowSchedule background_traffic(const Topology& topo, Rng& rng, int n_flows,
                                double mean_rate_bps, Duration duration) {
  FlowSchedule s;
  for (int i = 0; i < n_flows; ++i) {
    Ipv4 src = random_host(topo, rng);
    Ipv4 dst = random_host(topo, rng);
    if (src == dst) continue;
    FlowSpec spec;
    spec.key = {src, dst, ephemeral_port(rng),
                static_cast<std::uint16_t>(rng.next_int(1, 1023)),
                Proto::kTcp};
    spec.rate_bps = rng.next_exponential(mean_rate_bps);
    spec.flags = {.syn = false, .ack = true};
    s.add(TimePoint::origin(), TimePoint::origin() + duration, spec);
  }
  return s;
}

FlowSchedule heavy_hitter_workload(const Topology& topo, Rng& rng,
                                   double hh_ratio, double hh_rate_bps,
                                   Duration change_period,
                                   Duration duration) {
  FARM_CHECK(hh_ratio >= 0 && hh_ratio <= 1);
  FlowSchedule s;
  auto hosts = topo.hosts();
  FARM_CHECK(hosts.size() >= 2);
  std::size_t n_hh = std::max<std::size_t>(
      1, static_cast<std::size_t>(hh_ratio * static_cast<double>(hosts.size())));
  TimePoint t = TimePoint::origin();
  TimePoint end = t + duration;
  while (t < end) {
    TimePoint epoch_end = std::min(t + change_period, end);
    // Draw a fresh HH set for this epoch.
    for (std::size_t i = 0; i < n_hh; ++i) {
      Ipv4 src = random_host(topo, rng);
      Ipv4 dst = random_host(topo, rng);
      if (src == dst) continue;
      FlowSpec spec;
      spec.key = {src, dst, ephemeral_port(rng), 443, Proto::kTcp};
      spec.rate_bps = hh_rate_bps * rng.next_double(0.8, 1.2);
      spec.packet_bytes = 1400;
      spec.flags = {.ack = true};
      s.add(t, epoch_end, spec);
    }
    t = epoch_end;
  }
  return s;
}

FlowSchedule ddos_attack(const Topology& topo, Rng& rng, Ipv4 victim,
                         int n_sources, double per_source_rate_bps,
                         TimePoint start, Duration duration) {
  FlowSchedule s;
  for (int i = 0; i < n_sources; ++i) {
    FlowSpec spec;
    spec.key = {random_host(topo, rng), victim, ephemeral_port(rng), 80,
                Proto::kUdp};
    spec.rate_bps = per_source_rate_bps;
    spec.packet_bytes = 512;
    s.add(start, start + duration, spec);
  }
  return s;
}

FlowSchedule superspreader(const Topology& topo, Rng& rng, Ipv4 source,
                           int n_destinations, double per_flow_rate_bps,
                           TimePoint start, Duration duration) {
  FlowSchedule s;
  auto hosts = topo.hosts();
  for (int i = 0; i < n_destinations; ++i) {
    Ipv4 dst = *topo.node(hosts[rng.next_below(hosts.size())]).address;
    if (dst == source) continue;
    FlowSpec spec;
    spec.key = {source, dst, ephemeral_port(rng),
                static_cast<std::uint16_t>(rng.next_int(1, 1023)),
                Proto::kTcp};
    spec.rate_bps = per_flow_rate_bps;
    spec.flags = {.syn = true};
    s.add(start, start + duration, spec);
  }
  return s;
}

FlowSchedule port_scan(Ipv4 source, Ipv4 target, std::uint16_t first_port,
                       int n_ports, double probe_rate_bps, TimePoint start,
                       Duration duration) {
  FlowSchedule s;
  Duration per_port = duration / std::max(1, n_ports);
  TimePoint t = start;
  for (int i = 0; i < n_ports; ++i) {
    FlowSpec spec;
    spec.key = {source, target, 41000,
                static_cast<std::uint16_t>(first_port + i), Proto::kTcp};
    spec.rate_bps = probe_rate_bps;
    spec.packet_bytes = 60;
    spec.flags = {.syn = true};
    s.add(t, t + per_port, spec);
    t += per_port;
  }
  return s;
}

FlowSchedule syn_flood(const Topology& topo, Rng& rng, Ipv4 victim,
                       std::uint16_t service_port, int n_sources,
                       double per_source_rate_bps, TimePoint start,
                       Duration duration) {
  FlowSchedule s;
  for (int i = 0; i < n_sources; ++i) {
    FlowSpec spec;
    spec.key = {random_host(topo, rng), victim, ephemeral_port(rng),
                service_port, Proto::kTcp};
    spec.rate_bps = per_source_rate_bps;
    spec.packet_bytes = 60;
    spec.flags = {.syn = true};
    s.add(start, start + duration, spec);
  }
  return s;
}

FlowSchedule ssh_brute_force(Ipv4 attacker, Ipv4 target, int attempts,
                             Duration attempt_interval, TimePoint start) {
  FlowSchedule s;
  TimePoint t = start;
  for (int i = 0; i < attempts; ++i) {
    FlowSpec spec;
    spec.key = {attacker, target,
                static_cast<std::uint16_t>(40000 + (i % 20000)), 22,
                Proto::kTcp};
    spec.rate_bps = 50e3;  // short authentication exchange
    spec.packet_bytes = 120;
    spec.flags = {.syn = true};
    s.add(t, t + attempt_interval, spec);
    t += attempt_interval;
  }
  return s;
}

FlowSchedule dns_reflection(const Topology& topo, Rng& rng, Ipv4 victim,
                            int n_amplifiers, double per_amp_rate_bps,
                            TimePoint start, Duration duration) {
  FlowSchedule s;
  for (int i = 0; i < n_amplifiers; ++i) {
    FlowSpec spec;
    spec.key = {random_host(topo, rng), victim, 53, ephemeral_port(rng),
                Proto::kUdp};
    spec.rate_bps = per_amp_rate_bps;
    spec.packet_bytes = 3000;  // amplified response
    s.add(start, start + duration, spec);
  }
  return s;
}

FlowSchedule slowloris(const Topology& topo, Rng& rng, Ipv4 victim,
                       int n_connections, double per_conn_rate_bps,
                       TimePoint start, Duration duration) {
  FlowSchedule s;
  for (int i = 0; i < n_connections; ++i) {
    FlowSpec spec;
    spec.key = {random_host(topo, rng), victim, ephemeral_port(rng), 80,
                Proto::kTcp};
    spec.rate_bps = per_conn_rate_bps;  // trickle
    spec.packet_bytes = 40;
    spec.flags = {.ack = true};
    s.add(start, start + duration, spec);
  }
  return s;
}

}  // namespace farm::net

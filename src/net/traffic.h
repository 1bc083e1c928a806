// Synthetic traffic workloads.
//
// We do not have the paper's production SAP traces, so each evaluation
// scenario is driven by a generator parameterized on the knobs the paper
// reports (HH ratio 1–10% of ports, HH churn ≤ 1/min, attack shapes for
// the Table I use cases). A workload is a time-varying set of flow rates
// (FlowSchedule); the ASIC-level TrafficDriver turns it into counter
// updates and packet samples along routed paths.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "net/topology.h"
#include "util/rng.h"
#include "util/time.h"

namespace farm::net {

using util::Duration;
using util::Rng;
using util::TimePoint;

struct FlowSpec {
  FlowKey key;
  double rate_bps = 0;       // offered rate while active
  std::uint32_t packet_bytes = 1000;
  TcpFlags flags;            // representative per-packet flags
  bool operator==(const FlowSpec&) const = default;
};

struct ScheduledFlow {
  TimePoint start;
  TimePoint end;  // exclusive; TimePoint::from_ns(INT64_MAX) = forever
  FlowSpec spec;
};

// An immutable-after-build timeline of flows.
class FlowSchedule {
 public:
  void add(TimePoint start, TimePoint end, FlowSpec spec);
  void add_forever(TimePoint start, FlowSpec spec);
  const std::vector<ScheduledFlow>& entries() const { return flows_; }
  std::size_t size() const { return flows_.size(); }
  // Merges another schedule in.
  void append(const FlowSchedule& other);

 private:
  std::vector<ScheduledFlow> flows_;
};

// --- Generators -----------------------------------------------------------

// Uniform background mice between random host pairs.
FlowSchedule background_traffic(const Topology& topo, Rng& rng, int n_flows,
                                double mean_rate_bps, Duration duration);

// Heavy-hitter workload per §VI-B: a fraction `hh_ratio` of host pairs carry
// elephant flows at `hh_rate_bps`; the HH set is re-drawn every
// `change_period` (the paper observes changes up to once a minute).
FlowSchedule heavy_hitter_workload(const Topology& topo, Rng& rng,
                                   double hh_ratio, double hh_rate_bps,
                                   Duration change_period, Duration duration);

// DDoS: `n_sources` random hosts all flood `victim`.
FlowSchedule ddos_attack(const Topology& topo, Rng& rng, Ipv4 victim,
                         int n_sources, double per_source_rate_bps,
                         TimePoint start, Duration duration);

// Superspreader: one source contacts `n_destinations` distinct hosts.
FlowSchedule superspreader(const Topology& topo, Rng& rng, Ipv4 source,
                           int n_destinations, double per_flow_rate_bps,
                           TimePoint start, Duration duration);

// Port scan: SYN probes from source to sequential ports of one target.
FlowSchedule port_scan(Ipv4 source, Ipv4 target, std::uint16_t first_port,
                       int n_ports, double probe_rate_bps, TimePoint start,
                       Duration duration);

// TCP SYN flood: high-rate SYN-only packets toward one service port.
FlowSchedule syn_flood(const Topology& topo, Rng& rng, Ipv4 victim,
                       std::uint16_t service_port, int n_sources,
                       double per_source_rate_bps, TimePoint start,
                       Duration duration);

// SSH brute force: repeated short connections to port 22.
FlowSchedule ssh_brute_force(Ipv4 attacker, Ipv4 target, int attempts,
                             Duration attempt_interval, TimePoint start);

// DNS reflection: amplifiers send large UDP responses (src port 53) to the
// victim without matching requests.
FlowSchedule dns_reflection(const Topology& topo, Rng& rng, Ipv4 victim,
                            int n_amplifiers, double per_amp_rate_bps,
                            TimePoint start, Duration duration);

// Slowloris: many concurrent long-lived, very low-rate connections to a web
// server port.
FlowSchedule slowloris(const Topology& topo, Rng& rng, Ipv4 victim,
                       int n_connections, double per_conn_rate_bps,
                       TimePoint start, Duration duration);

}  // namespace farm::net

// Traffic driver: replays a FlowSchedule over the topology.
//
// Each tick, every active flow's rate is applied to the switches along its
// shortest path, honouring TCAM actions: a drop or rate-limit installed by
// a seed at switch k reduces the rate every switch > k sees — which is how
// reaction benches verify local mitigation end-to-end.
//
// Per-flow work is derived once and kept until its inputs change:
// endpoints are resolved once, flows enter and leave the active set in
// schedule order, a flow's route (switch, ingress and egress interface per
// hop) is kept until link or node liveness changes, and what its header
// matches at each hop is kept in a HopMatch that the switch re-derives
// when its TCAM or its samplers change (DESIGN.md §17).
#pragma once

#include <cstdint>
#include <vector>

#include "asic/switch.h"
#include "net/traffic.h"
#include "sim/engine.h"

namespace farm::asic {

class TrafficDriver {
 public:
  // `switch_of_node[n]` is the chassis simulating topology node n, or
  // nullptr for hosts. Pointers must outlive the driver.
  TrafficDriver(sim::Engine& engine, const net::Topology& topo,
                std::vector<SwitchChassis*> switch_of_node,
                net::FlowSchedule schedule,
                sim::Duration tick = sim::Duration::ms(1));

  void start();
  void stop();
  sim::Duration tick_period() const { return tick_; }

  // Total bytes delivered to each destination host node (post-mitigation);
  // lets tests assert that an installed drop rule actually quenched a flow.
  std::uint64_t bytes_delivered_to(net::NodeId host) const;

 private:
  // One switch on a flow's route and what the flow's header matches there.
  struct Hop {
    SwitchChassis* sw;
    int in_iface;   // -1 when the route starts here
    int out_iface;  // -1 when it ends here
    HopMatch match;
  };
  struct ActiveFlow {
    std::uint32_t entry;  // index into schedule_.entries()
    bool reachable = false;  // a path exists at the current liveness
    std::vector<Hop> route;  // the switches of its path, in order
  };

  void on_tick();
  // Brings active_ to the flows active at the instant `t`, routing each
  // flow it admits.
  void advance(sim::TimePoint t);
  void route(ActiveFlow& flow) const;
  // iface index of neighbor `nb` on node `n` (position in adjacency list).
  int iface_index(net::NodeId n, net::NodeId nb) const;

  sim::Engine& engine_;
  const net::Topology& topo_;
  std::vector<SwitchChassis*> switches_;
  net::FlowSchedule schedule_;
  sim::Duration tick_;
  sim::PeriodicTask task_;
  // Per schedule entry: its endpoint hosts (kInvalidNode if external).
  std::vector<net::NodeId> src_, dst_;
  // Entries with both endpoints in the topology, by start time; the first
  // next_start_ of them have been admitted (or skipped as already over).
  std::vector<std::uint32_t> by_start_;
  std::size_t next_start_ = 0;
  std::vector<ActiveFlow> active_;  // in schedule order
  // Topology liveness the active routes were derived at.
  std::uint64_t route_liveness_ = 0;
  std::vector<std::uint64_t> delivered_;  // per node
};

}  // namespace farm::asic

// The traffic tick as it ran before routes and matches were cached, kept
// as the differential oracle of tick_oracle_test.cpp. Every tick the
// reference driver enumerates the active flows afresh (active_at), looks
// up one route per FlowKey in a cache it drops whenever topology liveness
// moves, and the reference chassis tests the flow's header against every
// TCAM rule and every sampler's filter on every call. Only the shared
// types (Tcam, rule and port records, the topology, the engine) come from
// src/.
//
// A sampler's filter gates its accumulator, as in src/: for the soil's
// probability-1 probe samplers this is the same as testing the filter
// inside the callback, as the soil did before samplers carried filters.
// The reference chassis keeps each rule's hit counters beside the TCAM,
// keyed by rule id: it reads rules only through Tcam::rules().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "asic/switch.h"
#include "asic/tcam.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "sim/engine.h"

namespace farm::asic::ref {

// The flows of `schedule` active at the instant `t` (start <= t < end),
// in schedule order.
std::vector<net::FlowSpec> active_at(const net::FlowSchedule& schedule,
                                     util::TimePoint t);

class Chassis {
 public:
  // Uses the interface count and TCAM sizes of `config`.
  explicit Chassis(const SwitchConfig& config);

  Tcam& tcam() { return tcam_; }
  const Tcam& tcam() const { return tcam_; }
  // Hit counters of rule `id`: {packets, bytes}.
  std::pair<std::uint64_t, std::uint64_t> hits(RuleId id) const;
  const PortStats& port_stats(int iface) const;
  std::uint64_t asic_bytes_forwarded() const { return asic_bytes_; }

  void power_off();
  void power_on();

  double apply_flow(const net::FlowSpec& flow, int in_iface, int out_iface,
                    sim::Duration dt);

  SamplerId add_sampler(double probability, net::Filter filter,
                        SwitchChassis::SampleCallback cb);
  void remove_sampler(SamplerId id);
  SamplerId add_mirror_subscriber(SwitchChassis::SampleCallback cb);
  void remove_mirror_subscriber(SamplerId id);

 private:
  struct Sampler {
    SamplerId id;
    double probability;
    net::Filter filter;
    SwitchChassis::SampleCallback cb;
    double accumulator = 0;
  };

  int n_ifaces_;
  Tcam tcam_;
  std::map<RuleId, std::pair<std::uint64_t, std::uint64_t>> hits_;
  std::vector<PortStats> ports_;
  std::vector<Sampler> samplers_;
  std::vector<Sampler> mirrors_;
  SamplerId next_sampler_ = 1;
  std::uint64_t asic_bytes_ = 0;
  bool powered_ = true;
};

class Driver {
 public:
  Driver(sim::Engine& engine, const net::Topology& topo,
         std::vector<Chassis*> switch_of_node, net::FlowSchedule schedule,
         sim::Duration tick);

  void start() { task_.start(); }
  std::uint64_t bytes_delivered_to(net::NodeId host) const;

 private:
  void on_tick();
  int iface_index(net::NodeId n, net::NodeId nb) const;

  sim::Engine& engine_;
  const net::Topology& topo_;
  std::vector<Chassis*> switches_;
  net::FlowSchedule schedule_;
  sim::Duration tick_;
  sim::PeriodicTask task_;
  std::map<net::FlowKey, net::Path> path_cache_;
  std::uint64_t cached_liveness_ = 0;
  std::map<net::NodeId, std::uint64_t> delivered_;
};

}  // namespace farm::asic::ref

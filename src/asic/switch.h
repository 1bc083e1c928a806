// Switch chassis: ASIC data plane + management CPU, joined by a PCIe bus.
//
// This is the simulation substrate standing in for the paper's hardware
// (Tofino/Trident ASICs behind Xeon/Atom management CPUs, §VI-A). It
// exposes exactly the surfaces FARM and the baselines consume:
//   - per-interface and per-TCAM-rule counters (polled over PCIe),
//   - packet sampling / mirroring toward the CPU,
//   - TCAM rule installation (the reaction path),
//   - a CPU executing seed/agent work.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "asic/pcie.h"
#include "asic/tcam.h"
#include "net/packet.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "sim/cpu.h"
#include "sim/engine.h"

namespace farm::asic {

struct PortStats {
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
};

struct SwitchConfig {
  int n_ifaces = 48;
  int cpu_cores = 4;  // Atom C2538 class by default
  int ram_mb = 8192;
  sim::Duration context_switch = sim::cost::kContextSwitch;
  int tcam_capacity = 3072;
  int tcam_monitoring_reserved = 1024;
  double pcie_bandwidth_bps = sim::cost::kPciePollBandwidthBps;
  double asic_bandwidth_bps = sim::cost::kAsicBandwidthBps;
};

using SamplerId = std::uint64_t;

// What one flow's header matches at one hop: every TCAM rule it hits, the
// rule that acts on it, and the samplers whose filter it passes, each as
// an index into the chassis's current tables. The traffic driver keeps
// one per (flow, hop); apply_flow re-derives a part when the TCAM version
// or the chassis's sampler version it was derived at has moved.
struct HopMatch {
  std::uint64_t tcam_version = 0;     // 0: derive on the next call
  std::uint64_t sampler_version = 0;
  std::vector<std::uint32_t> rules;   // indices into tcam().rules()
  int acting = -1;                    // index of the acting rule, or -1
  std::vector<std::uint32_t> samplers;
};

class SwitchChassis {
 public:
  SwitchChassis(sim::Engine& engine, net::NodeId node, std::string name,
                SwitchConfig config, std::uint64_t sample_seed);

  net::NodeId node() const { return node_; }
  const std::string& name() const { return name_; }
  const SwitchConfig& config() const { return config_; }

  Tcam& tcam() { return tcam_; }
  const Tcam& tcam() const { return tcam_; }
  PcieBus& pcie() { return pcie_; }
  const PcieBus& pcie() const { return pcie_; }
  sim::CpuModel& cpu() { return cpu_; }
  const sim::CpuModel& cpu() const { return cpu_; }

  int n_ifaces() const { return config_.n_ifaces; }
  const PortStats& port_stats(int iface) const;

  // --- Power state (fault injection) --------------------------------------
  // Power failure: wipes the TCAM (both regions) and all hardware counters,
  // blackholes traffic, and silences the PCIe bus. Samplers/mirrors keep
  // their registrations (they belong to software agents that clean up
  // separately) but see no packets while off.
  void power_off();
  // Cold boot: clean TCAM, zeroed counters, PCIe back online.
  void power_on();
  bool powered() const { return powered_; }

  // Applies `dt` worth of one flow crossing this switch. in/out iface may
  // be -1 (unknown / terminating here). Returns the effective forwarded
  // rate after TCAM actions (drop → 0, rate-limit → capped), which the
  // traffic driver propagates downstream. `match` is this flow's record
  // at this hop: pass the same one for every call with the same header
  // and `in_iface`, and a default-constructed one otherwise.
  double apply_flow(const net::FlowSpec& flow, int in_iface, int out_iface,
                    sim::Duration dt, HopMatch& match);

  // --- Packet sampling toward the CPU (sFlow agents, probe variables) ----
  // `probability` is the per-packet sample probability over the arriving
  // packets that `filter` matches at their ingress interface. The callback
  // gets a representative header plus the number of packets it stands for.
  using SampleCallback =
      std::function<void(const net::PacketHeader&, std::uint64_t count)>;
  SamplerId add_sampler(double probability, net::Filter filter,
                        SampleCallback cb);
  void remove_sampler(SamplerId id);

  // --- Mirroring (TCAM kMirror action) ------------------------------------
  // All packets matching a kMirror rule are delivered here, at full rate.
  SamplerId add_mirror_subscriber(SampleCallback cb);
  void remove_mirror_subscriber(SamplerId id);

  // Cumulative bytes the ASIC has forwarded (for utilization accounting).
  std::uint64_t asic_bytes_forwarded() const { return asic_bytes_; }

 private:
  struct Sampler {
    SamplerId id;
    double probability;
    net::Filter filter;
    SampleCallback cb;
    double accumulator = 0;  // fractional expected samples carried over
  };

  // Re-derive the TCAM or the sampler part of `m` for `header` arriving
  // on `in_iface`.
  void match_rules(const net::PacketHeader& header, int in_iface,
                   HopMatch& m) const;
  void match_samplers(const net::PacketHeader& header, int in_iface,
                      HopMatch& m) const;

  sim::Engine& engine_;
  net::NodeId node_;
  std::string name_;
  SwitchConfig config_;
  Tcam tcam_;
  PcieBus pcie_;
  sim::CpuModel cpu_;
  std::vector<PortStats> ports_;
  std::vector<Sampler> samplers_;
  std::vector<Sampler> mirrors_;
  // Moves whenever samplers_ changes, so HopMatch sampler indices go stale.
  std::uint64_t sampler_version_ = 1;
  SamplerId next_sampler_ = 1;
  std::uint64_t asic_bytes_ = 0;
  bool powered_ = true;
};

}  // namespace farm::asic

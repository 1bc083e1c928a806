#include "asic/switch.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace farm::asic {

SwitchChassis::SwitchChassis(sim::Engine& engine, net::NodeId node,
                             std::string name, SwitchConfig config,
                             std::uint64_t sample_seed)
    : engine_(engine),
      node_(node),
      name_(std::move(name)),
      config_(config),
      tcam_(config.tcam_capacity, config.tcam_monitoring_reserved),
      pcie_(engine, "pcie." + name_, config.pcie_bandwidth_bps,
            sim::cost::kPcieRequestOverhead, 0xFA17ull ^ sample_seed),
      cpu_(engine, config.cpu_cores, config.context_switch),
      ports_(static_cast<std::size_t>(config.n_ifaces)) {
  FARM_CHECK(config.n_ifaces > 0);
}

void SwitchChassis::power_off() {
  if (!powered_) return;
  powered_ = false;
  tcam_.clear();
  std::fill(ports_.begin(), ports_.end(), PortStats{});
  asic_bytes_ = 0;
  pcie_.set_online(false);
}

void SwitchChassis::power_on() {
  if (powered_) return;
  powered_ = true;
  pcie_.set_online(true);
}

const PortStats& SwitchChassis::port_stats(int iface) const {
  FARM_CHECK(iface >= 0 && iface < config_.n_ifaces);
  return ports_[static_cast<std::size_t>(iface)];
}

double SwitchChassis::apply_flow(const net::FlowSpec& flow, int in_iface,
                                 int out_iface, sim::Duration dt) {
  FARM_CHECK(dt.is_positive());
  if (!powered_) return 0;  // dead switch blackholes everything
  const double seconds = dt.seconds();
  double rate = flow.rate_bps;

  net::PacketHeader header{flow.key.src_ip, flow.key.dst_ip,
                           flow.key.src_port, flow.key.dst_port,
                           flow.key.proto, flow.flags, flow.packet_bytes};

  // TCAM lookup decides the effective action for the whole interval. Every
  // matching rule's counters account the arriving traffic (hardware keeps
  // per-rule counter blocks even for shadowed entries); the applied action
  // comes from the highest-priority matching non-count rule — pure count
  // rules (the soil's polling subjects) are transparent to forwarding.
  double out_rate = rate;
  std::uint64_t arriving_bytes =
      static_cast<std::uint64_t>(rate * seconds / 8.0);
  std::uint64_t arriving_packets = std::max<std::uint64_t>(
      arriving_bytes / std::max<std::uint32_t>(1, flow.packet_bytes),
      arriving_bytes > 0 ? 1 : 0);
  TcamRule* acting = nullptr;
  for (TcamRule* rule : tcam_.matching(header, in_iface)) {
    rule->hit_packets += arriving_packets;
    rule->hit_bytes += arriving_bytes;
    if (rule->action == RuleAction::kCount) continue;
    if (!acting || rule->priority > acting->priority ||
        (rule->priority == acting->priority && rule->id < acting->id))
      acting = rule;
  }
  if (acting) {
    switch (acting->action) {
      case RuleAction::kDrop:
        out_rate = 0;
        break;
      case RuleAction::kRateLimit:
        out_rate = std::min(rate, acting->rate_limit_bps);
        break;
      case RuleAction::kMirror:
        for (auto& m : mirrors_)
          if (m.cb) m.cb(header, arriving_packets);
        break;
      case RuleAction::kForward:
      case RuleAction::kCount:
        break;
    }
  }

  std::uint64_t out_bytes = static_cast<std::uint64_t>(out_rate * seconds / 8.0);
  std::uint64_t out_packets = std::max<std::uint64_t>(
      out_bytes / std::max<std::uint32_t>(1, flow.packet_bytes),
      out_bytes > 0 ? 1 : 0);

  if (in_iface >= 0) {
    FARM_CHECK(in_iface < config_.n_ifaces);
    auto& p = ports_[static_cast<std::size_t>(in_iface)];
    p.rx_packets += arriving_packets;
    p.rx_bytes += arriving_bytes;
  }
  if (out_iface >= 0) {
    FARM_CHECK(out_iface < config_.n_ifaces);
    auto& p = ports_[static_cast<std::size_t>(out_iface)];
    p.tx_packets += out_packets;
    p.tx_bytes += out_bytes;
  }
  asic_bytes_ += out_bytes;

  // Probabilistic samplers see arriving traffic. Expected-value
  // accumulation keeps runs deterministic and smooth: each sampler carries
  // the fractional remainder to the next interval.
  for (auto& s : samplers_) {
    s.accumulator += static_cast<double>(arriving_packets) * s.probability;
    if (s.accumulator >= 1.0) {
      auto emit = static_cast<std::uint64_t>(std::floor(s.accumulator));
      s.accumulator -= static_cast<double>(emit);
      if (s.cb) s.cb(header, emit);
    }
  }
  return out_rate;
}

SamplerId SwitchChassis::add_sampler(double probability, SampleCallback cb) {
  FARM_CHECK(probability >= 0 && probability <= 1);
  SamplerId id = next_sampler_++;
  samplers_.push_back(Sampler{id, probability, std::move(cb), 0});
  return id;
}

void SwitchChassis::remove_sampler(SamplerId id) {
  std::erase_if(samplers_, [&](const Sampler& s) { return s.id == id; });
}

SamplerId SwitchChassis::add_mirror_subscriber(SampleCallback cb) {
  SamplerId id = next_sampler_++;
  mirrors_.push_back(Sampler{id, 1.0, std::move(cb), 0});
  return id;
}

void SwitchChassis::remove_mirror_subscriber(SamplerId id) {
  std::erase_if(mirrors_, [&](const Sampler& s) { return s.id == id; });
}

}  // namespace farm::asic

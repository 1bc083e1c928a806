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

void SwitchChassis::match_rules(const net::PacketHeader& header,
                                int in_iface, HopMatch& m) const {
  // Hardware keeps per-rule counter blocks even for shadowed entries, so
  // every matching rule counts the arriving traffic; the applied action
  // comes from the highest-priority matching non-count rule — pure count
  // rules (the soil's polling subjects) are transparent to forwarding.
  const auto& rules = tcam_.rules();
  m.rules.clear();
  m.acting = -1;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const TcamRule& rule = rules[i];
    if (!rule.pattern.matches(header, in_iface)) continue;
    m.rules.push_back(static_cast<std::uint32_t>(i));
    if (rule.action == RuleAction::kCount) continue;
    const TcamRule* acting =
        m.acting < 0 ? nullptr : &rules[static_cast<std::size_t>(m.acting)];
    if (!acting || rule.priority > acting->priority ||
        (rule.priority == acting->priority && rule.id < acting->id))
      m.acting = static_cast<int>(i);
  }
  m.tcam_version = tcam_.version();
}

void SwitchChassis::match_samplers(const net::PacketHeader& header,
                                   int in_iface, HopMatch& m) const {
  m.samplers.clear();
  for (std::size_t i = 0; i < samplers_.size(); ++i)
    if (samplers_[i].filter.matches(header, in_iface))
      m.samplers.push_back(static_cast<std::uint32_t>(i));
  m.sampler_version = sampler_version_;
}

double SwitchChassis::apply_flow(const net::FlowSpec& flow, int in_iface,
                                 int out_iface, sim::Duration dt,
                                 HopMatch& match) {
  FARM_CHECK(dt.is_positive());
  if (!powered_) return 0;  // dead switch blackholes everything
  const double seconds = dt.seconds();
  double rate = flow.rate_bps;

  net::PacketHeader header{flow.key.src_ip, flow.key.dst_ip,
                           flow.key.src_port, flow.key.dst_port,
                           flow.key.proto, flow.flags, flow.packet_bytes};
  if (match.tcam_version != tcam_.version())
    match_rules(header, in_iface, match);
  if (match.sampler_version != sampler_version_)
    match_samplers(header, in_iface, match);

  // The TCAM decides the effective action for the whole interval.
  double out_rate = rate;
  std::uint64_t arriving_bytes =
      static_cast<std::uint64_t>(rate * seconds / 8.0);
  std::uint64_t arriving_packets = std::max<std::uint64_t>(
      arriving_bytes / std::max<std::uint32_t>(1, flow.packet_bytes),
      arriving_bytes > 0 ? 1 : 0);
  for (std::uint32_t i : match.rules)
    tcam_.count_hit(i, arriving_packets, arriving_bytes);
  if (match.acting >= 0) {
    const TcamRule& acting =
        tcam_.rules()[static_cast<std::size_t>(match.acting)];
    switch (acting.action) {
      case RuleAction::kDrop:
        out_rate = 0;
        break;
      case RuleAction::kRateLimit:
        out_rate = std::min(rate, acting.rate_limit_bps);
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

  // Probabilistic samplers see the arriving traffic their filter matches.
  // Expected-value accumulation keeps runs deterministic and smooth: each
  // sampler carries the fractional remainder to the next interval.
  for (std::uint32_t i : match.samplers) {
    Sampler& s = samplers_[i];
    s.accumulator += static_cast<double>(arriving_packets) * s.probability;
    if (s.accumulator >= 1.0) {
      auto emit = static_cast<std::uint64_t>(std::floor(s.accumulator));
      s.accumulator -= static_cast<double>(emit);
      if (s.cb) s.cb(header, emit);
    }
  }
  return out_rate;
}

SamplerId SwitchChassis::add_sampler(double probability, net::Filter filter,
                                     SampleCallback cb) {
  FARM_CHECK(probability >= 0 && probability <= 1);
  SamplerId id = next_sampler_++;
  samplers_.push_back(
      Sampler{id, probability, std::move(filter), std::move(cb), 0});
  ++sampler_version_;
  return id;
}

void SwitchChassis::remove_sampler(SamplerId id) {
  if (std::erase_if(samplers_, [&](const Sampler& s) { return s.id == id; }))
    ++sampler_version_;
}

SamplerId SwitchChassis::add_mirror_subscriber(SampleCallback cb) {
  SamplerId id = next_sampler_++;
  mirrors_.push_back(Sampler{id, 1.0, net::Filter(), std::move(cb), 0});
  return id;
}

void SwitchChassis::remove_mirror_subscriber(SamplerId id) {
  std::erase_if(mirrors_, [&](const Sampler& s) { return s.id == id; });
}

}  // namespace farm::asic

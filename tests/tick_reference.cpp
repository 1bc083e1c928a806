#include "tick_reference.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace farm::asic::ref {

std::vector<net::FlowSpec> active_at(const net::FlowSchedule& schedule,
                                     util::TimePoint t) {
  std::vector<net::FlowSpec> out;
  for (const auto& f : schedule.entries())
    if (f.start <= t && t < f.end) out.push_back(f.spec);
  return out;
}

Chassis::Chassis(const SwitchConfig& config)
    : n_ifaces_(config.n_ifaces),
      tcam_(config.tcam_capacity, config.tcam_monitoring_reserved),
      ports_(static_cast<std::size_t>(config.n_ifaces)) {}

std::pair<std::uint64_t, std::uint64_t> Chassis::hits(RuleId id) const {
  auto it = hits_.find(id);
  return it == hits_.end() ? std::pair<std::uint64_t, std::uint64_t>{}
                           : it->second;
}

const PortStats& Chassis::port_stats(int iface) const {
  FARM_CHECK(iface >= 0 && iface < n_ifaces_);
  return ports_[static_cast<std::size_t>(iface)];
}

void Chassis::power_off() {
  if (!powered_) return;
  powered_ = false;
  tcam_.clear();
  std::fill(ports_.begin(), ports_.end(), PortStats{});
  asic_bytes_ = 0;
}

void Chassis::power_on() { powered_ = true; }

double Chassis::apply_flow(const net::FlowSpec& flow, int in_iface,
                           int out_iface, sim::Duration dt) {
  FARM_CHECK(dt.is_positive());
  if (!powered_) return 0;
  const double seconds = dt.seconds();
  double rate = flow.rate_bps;

  net::PacketHeader header{flow.key.src_ip, flow.key.dst_ip,
                           flow.key.src_port, flow.key.dst_port,
                           flow.key.proto, flow.flags, flow.packet_bytes};

  double out_rate = rate;
  std::uint64_t arriving_bytes =
      static_cast<std::uint64_t>(rate * seconds / 8.0);
  std::uint64_t arriving_packets = std::max<std::uint64_t>(
      arriving_bytes / std::max<std::uint32_t>(1, flow.packet_bytes),
      arriving_bytes > 0 ? 1 : 0);
  const TcamRule* acting = nullptr;
  for (const TcamRule& rule : tcam_.rules()) {
    if (!rule.pattern.matches(header, in_iface)) continue;
    auto& h = hits_[rule.id];
    h.first += arriving_packets;
    h.second += arriving_bytes;
    if (rule.action == RuleAction::kCount) continue;
    if (!acting || rule.priority > acting->priority ||
        (rule.priority == acting->priority && rule.id < acting->id))
      acting = &rule;
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
    auto& p = ports_[static_cast<std::size_t>(in_iface)];
    p.rx_packets += arriving_packets;
    p.rx_bytes += arriving_bytes;
  }
  if (out_iface >= 0) {
    auto& p = ports_[static_cast<std::size_t>(out_iface)];
    p.tx_packets += out_packets;
    p.tx_bytes += out_bytes;
  }
  asic_bytes_ += out_bytes;

  for (auto& s : samplers_) {
    if (!s.filter.matches(header, in_iface)) continue;
    s.accumulator += static_cast<double>(arriving_packets) * s.probability;
    if (s.accumulator >= 1.0) {
      auto emit = static_cast<std::uint64_t>(std::floor(s.accumulator));
      s.accumulator -= static_cast<double>(emit);
      if (s.cb) s.cb(header, emit);
    }
  }
  return out_rate;
}

SamplerId Chassis::add_sampler(double probability, net::Filter filter,
                               SwitchChassis::SampleCallback cb) {
  SamplerId id = next_sampler_++;
  samplers_.push_back(
      Sampler{id, probability, std::move(filter), std::move(cb), 0});
  return id;
}

void Chassis::remove_sampler(SamplerId id) {
  std::erase_if(samplers_, [&](const Sampler& s) { return s.id == id; });
}

SamplerId Chassis::add_mirror_subscriber(SwitchChassis::SampleCallback cb) {
  SamplerId id = next_sampler_++;
  mirrors_.push_back(Sampler{id, 1.0, net::Filter(), std::move(cb), 0});
  return id;
}

void Chassis::remove_mirror_subscriber(SamplerId id) {
  std::erase_if(mirrors_, [&](const Sampler& s) { return s.id == id; });
}

Driver::Driver(sim::Engine& engine, const net::Topology& topo,
               std::vector<Chassis*> switch_of_node,
               net::FlowSchedule schedule, sim::Duration tick)
    : engine_(engine),
      topo_(topo),
      switches_(std::move(switch_of_node)),
      schedule_(std::move(schedule)),
      tick_(tick),
      task_(engine, tick, [this] { on_tick(); }) {
  FARM_CHECK(switches_.size() == topo_.node_count());
}

std::uint64_t Driver::bytes_delivered_to(net::NodeId host) const {
  auto it = delivered_.find(host);
  return it == delivered_.end() ? 0 : it->second;
}

int Driver::iface_index(net::NodeId n, net::NodeId nb) const {
  const auto& adj = topo_.neighbors(n);
  auto it = std::find(adj.begin(), adj.end(), nb);
  FARM_CHECK_MSG(it != adj.end(), "iface lookup for non-neighbor");
  return static_cast<int>(it - adj.begin());
}

void Driver::on_tick() {
  if (topo_.liveness_version() != cached_liveness_) {
    path_cache_.clear();
    cached_liveness_ = topo_.liveness_version();
  }
  for (const auto& flow : active_at(schedule_, engine_.now() - tick_)) {
    auto src = topo_.host_by_address(flow.key.src_ip);
    auto dst = topo_.host_by_address(flow.key.dst_ip);
    if (!src || !dst) continue;

    auto [it, inserted] = path_cache_.try_emplace(flow.key);
    if (inserted) it->second = topo_.shortest_path(*src, *dst);
    const net::Path& path = it->second;
    if (path.empty()) continue;

    net::FlowSpec effective = flow;
    for (std::size_t i = 0; i < path.size(); ++i) {
      Chassis* sw = switches_[path[i]];
      if (!sw) continue;
      int in_iface = i > 0 ? iface_index(path[i], path[i - 1]) : -1;
      int out_iface =
          i + 1 < path.size() ? iface_index(path[i], path[i + 1]) : -1;
      effective.rate_bps =
          sw->apply_flow(effective, in_iface, out_iface, tick_);
      if (effective.rate_bps <= 0) break;
    }
    if (effective.rate_bps > 0)
      delivered_[*dst] += static_cast<std::uint64_t>(effective.rate_bps *
                                                     tick_.seconds() / 8.0);
  }
}

}  // namespace farm::asic::ref

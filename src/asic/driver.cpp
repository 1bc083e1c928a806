#include "asic/driver.h"

#include <algorithm>

#include "telemetry/prof.h"
#include "util/check.h"

namespace farm::asic {

TrafficDriver::TrafficDriver(sim::Engine& engine, const net::Topology& topo,
                             std::vector<SwitchChassis*> switch_of_node,
                             net::FlowSchedule schedule, sim::Duration tick)
    : engine_(engine),
      topo_(topo),
      switches_(std::move(switch_of_node)),
      schedule_(std::move(schedule)),
      tick_(tick),
      task_(engine, tick, [this] { on_tick(); }),
      route_liveness_(topo.liveness_version()),
      delivered_(topo.node_count(), 0) {
  FARM_CHECK(switches_.size() == topo_.node_count());
  const auto& entries = schedule_.entries();
  src_.resize(entries.size(), net::kInvalidNode);
  dst_.resize(entries.size(), net::kInvalidNode);
  for (std::uint32_t i = 0; i < entries.size(); ++i) {
    auto src = topo_.host_by_address(entries[i].spec.key.src_ip);
    auto dst = topo_.host_by_address(entries[i].spec.key.dst_ip);
    if (!src || !dst) continue;  // external endpoints are out of scope
    src_[i] = *src;
    dst_[i] = *dst;
    by_start_.push_back(i);
  }
  std::stable_sort(by_start_.begin(), by_start_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return entries[a].start < entries[b].start;
                   });
}

void TrafficDriver::start() { task_.start(); }
void TrafficDriver::stop() { task_.stop(); }

std::uint64_t TrafficDriver::bytes_delivered_to(net::NodeId host) const {
  return host < delivered_.size() ? delivered_[host] : 0;
}

int TrafficDriver::iface_index(net::NodeId n, net::NodeId nb) const {
  const auto& adj = topo_.neighbors(n);
  auto it = std::find(adj.begin(), adj.end(), nb);
  FARM_CHECK_MSG(it != adj.end(), "iface lookup for non-neighbor");
  return static_cast<int>(it - adj.begin());
}

void TrafficDriver::advance(sim::TimePoint t) {
  const auto& entries = schedule_.entries();
  std::erase_if(active_, [&](const ActiveFlow& f) {
    return entries[f.entry].end <= t;
  });
  const std::size_t old_size = active_.size();
  for (; next_start_ < by_start_.size() &&
         entries[by_start_[next_start_]].start <= t;
       ++next_start_) {
    std::uint32_t e = by_start_[next_start_];
    if (entries[e].end <= t) continue;
    active_.push_back(ActiveFlow{e});
    route(active_.back());
  }
  if (active_.size() == old_size) return;
  auto by_entry = [](const ActiveFlow& a, const ActiveFlow& b) {
    return a.entry < b.entry;
  };
  auto mid = active_.begin() + static_cast<std::ptrdiff_t>(old_size);
  std::sort(mid, active_.end(), by_entry);
  std::inplace_merge(active_.begin(), mid, active_.end(), by_entry);
}

void TrafficDriver::route(ActiveFlow& flow) const {
  const net::Path path =
      topo_.shortest_path(src_[flow.entry], dst_[flow.entry]);
  flow.reachable = !path.empty();
  if (!flow.reachable) return;  // its hops wait, buffers and all, for a path
  std::size_t hops = 0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    SwitchChassis* sw = switches_[path[i]];
    if (!sw) continue;  // hosts
    int in_iface = i > 0 ? iface_index(path[i], path[i - 1]) : -1;
    int out_iface =
        i + 1 < path.size() ? iface_index(path[i], path[i + 1]) : -1;
    if (hops == flow.route.size())
      flow.route.push_back(Hop{sw, in_iface, out_iface, HopMatch{}});
    Hop& hop = flow.route[hops++];
    // A match holds for one chassis and ingress interface. A hop the new
    // route shares with the old one keeps its match; any other re-derives
    // it into the buffers it already has, so a reroute allocates nothing.
    if (hop.sw != sw || hop.in_iface != in_iface)
      hop.match.tcam_version = hop.match.sampler_version = 0;
    hop.sw = sw;
    hop.in_iface = in_iface;
    hop.out_iface = out_iface;
  }
  flow.route.resize(hops);
}

void TrafficDriver::on_tick() {
  FARM_PROF_SCOPE("asic/traffic_tick");
  if (topo_.liveness_version() != route_liveness_) {
    route_liveness_ = topo_.liveness_version();
    for (auto& f : active_) route(f);
  }
  advance(engine_.now() - tick_);

  const auto& entries = schedule_.entries();
  for (auto& flow : active_) {
    if (!flow.reachable) continue;
    net::FlowSpec effective = entries[flow.entry].spec;
    for (Hop& hop : flow.route) {
      effective.rate_bps = hop.sw->apply_flow(effective, hop.in_iface,
                                              hop.out_iface, tick_, hop.match);
      if (effective.rate_bps <= 0) break;  // dropped upstream
    }
    if (effective.rate_bps > 0)
      delivered_[dst_[flow.entry]] += static_cast<std::uint64_t>(
          effective.rate_bps * tick_.seconds() / 8.0);
  }
}

}  // namespace farm::asic

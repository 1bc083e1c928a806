#include "net/topology.h"

#include <algorithm>
#include <queue>

#include "util/check.h"

namespace farm::net {

NodeId Topology::add_switch(std::string name) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, NodeKind::kSwitch, std::move(name), {}, {}});
  adj_.emplace_back();
  node_down_.push_back(false);
  return id;
}

NodeId Topology::add_host(std::string name, Ipv4 address) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, NodeKind::kHost, std::move(name), address, {}});
  adj_.emplace_back();
  node_down_.push_back(false);
  return id;
}

void Topology::set_link_state(NodeId a, NodeId b, bool up) {
  FARM_CHECK(a < nodes_.size() && b < nodes_.size() && a != b);
  bool changed = up ? down_links_.erase(link_key(a, b)) > 0
                    : down_links_.insert(link_key(a, b)).second;
  if (changed) ++liveness_version_;
}

bool Topology::link_up(NodeId a, NodeId b) const {
  return !down_links_.count(link_key(a, b));
}

void Topology::set_node_state(NodeId n, bool up) {
  FARM_CHECK(n < nodes_.size());
  if (node_down_[n] != !up) {
    node_down_[n] = !up;
    ++liveness_version_;
  }
}

bool Topology::edge_usable(NodeId a, NodeId b) const {
  return !node_down_[a] && !node_down_[b] && link_up(a, b);
}

void Topology::add_link(NodeId a, NodeId b) {
  FARM_CHECK(a < nodes_.size() && b < nodes_.size() && a != b);
  auto& na = adj_[a];
  if (std::find(na.begin(), na.end(), b) != na.end()) return;
  na.push_back(b);
  adj_[b].push_back(a);
}

void Topology::assign_prefix(NodeId leaf, Prefix p) {
  FARM_CHECK(leaf < nodes_.size());
  nodes_[leaf].owned_prefixes.push_back(p);
}

const Node& Topology::node(NodeId id) const {
  FARM_CHECK(id < nodes_.size());
  return nodes_[id];
}

const std::vector<NodeId>& Topology::neighbors(NodeId id) const {
  FARM_CHECK(id < adj_.size());
  return adj_[id];
}

std::vector<NodeId> Topology::switches() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_)
    if (n.kind == NodeKind::kSwitch) out.push_back(n.id);
  return out;
}

std::vector<NodeId> Topology::hosts() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_)
    if (n.kind == NodeKind::kHost) out.push_back(n.id);
  return out;
}

std::optional<NodeId> Topology::host_by_address(Ipv4 ip) const {
  for (const auto& n : nodes_)
    if (n.kind == NodeKind::kHost && n.address && *n.address == ip)
      return n.id;
  return std::nullopt;
}

std::vector<NodeId> Topology::hosts_in(const Prefix& p) const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_)
    if (n.kind == NodeKind::kHost && n.address && p.contains(*n.address))
      out.push_back(n.id);
  return out;
}

Path Topology::shortest_path(NodeId from, NodeId to) const {
  FARM_CHECK(from < nodes_.size() && to < nodes_.size());
  if (node_down_[from] || node_down_[to]) return {};
  if (from == to) return {from};
  std::vector<NodeId> prev(nodes_.size(), kInvalidNode);
  std::vector<bool> seen(nodes_.size(), false);
  std::queue<NodeId> q;
  q.push(from);
  seen[from] = true;
  while (!q.empty()) {
    NodeId u = q.front();
    q.pop();
    for (NodeId v : adj_[u]) {
      if (seen[v] || !edge_usable(u, v)) continue;
      seen[v] = true;
      prev[v] = u;
      if (v == to) {
        Path path{to};
        for (NodeId x = to; prev[x] != kInvalidNode; x = prev[x])
          path.push_back(prev[x]);
        std::reverse(path.begin(), path.end());
        return path;
      }
      q.push(v);
    }
  }
  return {};
}

std::vector<Path> Topology::all_shortest_paths(NodeId from, NodeId to) const {
  FARM_CHECK(from < nodes_.size() && to < nodes_.size());
  if (node_down_[from] || node_down_[to]) return {};
  if (from == to) return {{from}};
  // BFS layering, then DFS back-walk over all tight predecessor edges.
  constexpr int kUnreached = -1;
  std::vector<int> dist(nodes_.size(), kUnreached);
  std::vector<std::vector<NodeId>> preds(nodes_.size());
  std::queue<NodeId> q;
  q.push(from);
  dist[from] = 0;
  while (!q.empty()) {
    NodeId u = q.front();
    q.pop();
    if (u == to) continue;  // no need to expand past the target
    for (NodeId v : adj_[u]) {
      if (!edge_usable(u, v)) continue;
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1;
        preds[v].push_back(u);
        q.push(v);
      } else if (dist[v] == dist[u] + 1) {
        preds[v].push_back(u);
      }
    }
  }
  if (dist[to] == kUnreached) return {};
  std::vector<Path> out;
  Path cur{to};
  // Iterative DFS with explicit stack of (node, next-pred-index).
  struct Frame {
    NodeId node;
    std::size_t next = 0;
  };
  std::vector<Frame> stack{{to, 0}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.node == from) {
      Path p;
      p.reserve(stack.size());
      for (auto it = stack.rbegin(); it != stack.rend(); ++it)
        p.push_back(it->node);
      out.push_back(std::move(p));
      stack.pop_back();
      continue;
    }
    if (f.next < preds[f.node].size()) {
      NodeId nxt = preds[f.node][f.next++];
      stack.push_back({nxt, 0});
    } else {
      stack.pop_back();
    }
  }
  // Deterministic order for downstream consumers.
  std::sort(out.begin(), out.end());
  return out;
}

SpineLeaf build_spine_leaf(const SpineLeafSpec& spec) {
  FARM_CHECK(spec.spines > 0 && spec.leaves > 0 && spec.hosts_per_leaf >= 0);
  FARM_CHECK_MSG(spec.leaves < 256 && spec.hosts_per_leaf < 255,
                 "addressing scheme supports <256 leaves, <255 hosts/leaf");
  SpineLeaf out;
  for (int s = 0; s < spec.spines; ++s)
    out.spine_switches.push_back(
        out.topo.add_switch("spine" + std::to_string(s)));
  for (int l = 0; l < spec.leaves; ++l) {
    NodeId leaf = out.topo.add_switch("leaf" + std::to_string(l));
    out.leaf_switches.push_back(leaf);
    out.topo.assign_prefix(
        leaf, Prefix(Ipv4(10, static_cast<std::uint8_t>(l), 0, 0), 16));
    for (NodeId spine : out.spine_switches) out.topo.add_link(leaf, spine);
    out.hosts_by_leaf.emplace_back();
    for (int h = 0; h < spec.hosts_per_leaf; ++h) {
      Ipv4 addr(10, static_cast<std::uint8_t>(l),
                static_cast<std::uint8_t>(h + 1), 1);
      NodeId host = out.topo.add_host(
          "h" + std::to_string(l) + "-" + std::to_string(h), addr);
      out.topo.add_link(leaf, host);
      out.hosts_by_leaf.back().push_back(host);
    }
  }
  return out;
}

std::vector<Path> SdnController::paths_matching(const Prefix& src,
                                                const Prefix& dst) const {
  std::vector<Path> out;
  for (NodeId s : topo_.hosts_in(src))
    for (NodeId d : topo_.hosts_in(dst)) {
      if (s == d) continue;
      auto paths = topo_.all_shortest_paths(s, d);
      out.insert(out.end(), paths.begin(), paths.end());
    }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace farm::net

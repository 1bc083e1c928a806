// Network topology and the SDN controller's path oracle.
//
// The seeder resolves Almanac `place` directives against paths returned by
// the controller (φ_path, §III-B a). We provide a generic graph plus a
// spine-leaf builder matching the paper's production deployment, and a
// host-addressing scheme (leaf l owns 10.l.0.0/16, host h on leaf l is
// 10.l.h.1) so prefix-based path queries behave like the paper's example.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/ip.h"
#include "net/packet.h"

namespace farm::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~NodeId{0};

enum class NodeKind : std::uint8_t { kSwitch, kHost };

struct Node {
  NodeId id = kInvalidNode;
  NodeKind kind = NodeKind::kSwitch;
  std::string name;
  // Hosts own exactly one address; switches advertise the prefixes they
  // front (leaf switches advertise their rack subnet).
  std::optional<Ipv4> address;        // hosts
  std::vector<Prefix> owned_prefixes; // leaf switches
};

// A path is the full node sequence from source to destination, endpoints
// included — matching the paper's φ_path example (1,2,5,3,4).
using Path = std::vector<NodeId>;

class Topology {
 public:
  NodeId add_switch(std::string name);
  NodeId add_host(std::string name, Ipv4 address);
  // Undirected link; idempotent for duplicate pairs.
  void add_link(NodeId a, NodeId b);
  // Declares that a leaf switch fronts a subnet (used by path queries).
  void assign_prefix(NodeId leaf, Prefix p);

  const Node& node(NodeId id) const;
  std::size_t node_count() const { return nodes_.size(); }
  const std::vector<NodeId>& neighbors(NodeId id) const;

  // --- Liveness (fault injection) ----------------------------------------
  // Links and nodes start up. Downing a link or node removes it from path
  // computation only; adjacency lists (and thus interface indices) are
  // stable across flaps. Idempotent per state.
  void set_link_state(NodeId a, NodeId b, bool up);
  bool link_up(NodeId a, NodeId b) const;
  void set_node_state(NodeId n, bool up);
  // Both endpoints and the link itself are up (what BFS traverses).
  bool edge_usable(NodeId a, NodeId b) const;
  // Monotonic counter bumped on every liveness change; path caches compare
  // it to know when to recompute.
  std::uint64_t liveness_version() const { return liveness_version_; }

  std::vector<NodeId> switches() const;
  std::vector<NodeId> hosts() const;
  // Host carrying the given address, if any.
  std::optional<NodeId> host_by_address(Ipv4 ip) const;
  // All hosts whose address falls inside the prefix.
  std::vector<NodeId> hosts_in(const Prefix& p) const;

  // One shortest path (BFS, deterministic neighbor order); empty if
  // disconnected.
  Path shortest_path(NodeId from, NodeId to) const;
  // All shortest paths between the endpoints (ECMP set).
  std::vector<Path> all_shortest_paths(NodeId from, NodeId to) const;

 private:
  static std::uint64_t link_key(NodeId a, NodeId b) {
    return a < b ? (std::uint64_t{a} << 32) | b : (std::uint64_t{b} << 32) | a;
  }

  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> adj_;
  std::vector<bool> node_down_;
  std::unordered_set<std::uint64_t> down_links_;
  std::uint64_t liveness_version_ = 0;
};

// --- Spine-leaf builder -----------------------------------------------------
struct SpineLeafSpec {
  int spines = 4;
  int leaves = 16;
  int hosts_per_leaf = 8;
};
struct SpineLeaf {
  Topology topo;
  std::vector<NodeId> spine_switches;
  std::vector<NodeId> leaf_switches;
  std::vector<std::vector<NodeId>> hosts_by_leaf;
};
SpineLeaf build_spine_leaf(const SpineLeafSpec& spec);

// The SDN controller as seen by the seeder: resolves filters to the set of
// network paths whose traffic they can match (φ_path).
class SdnController {
 public:
  explicit SdnController(const Topology& topo) : topo_(topo) {}

  // Paths from every host matching src_prefix to every host matching
  // dst_prefix (ECMP: all shortest paths per pair). Prefix::any() matches
  // all hosts.
  std::vector<Path> paths_matching(const Prefix& src, const Prefix& dst) const;

  const Topology& topology() const { return topo_; }

 private:
  const Topology& topo_;
};

}  // namespace farm::net

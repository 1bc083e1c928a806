// Packet/traffic filters.
//
// Filters appear in three places, always with the same semantics:
//   1. Almanac `fil` atoms inside expressions (srcIP/dstIP/port/proto),
//      combined with and/or/not (§III-A, Fig. 3);
//   2. TCAM rule match patterns;
//   3. Poll subjects — the φ_enc encoding that maps a filter to the set of
//      ASIC counters it requires, which drives polling aggregation (§III-B c).
//
// A Filter is an immutable expression tree; polling-subject extraction
// first normalizes to DNF, then encodes each conjunct. Each node derives
// its canonical key and interface footprint from its DNF once, on first
// use, so keyed lookups and equality compare stored strings.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/packet.h"

namespace farm::net {

// Atomic predicates. kIfacePort matches the switch interface a packet (or
// counter) belongs to — Almanac's `port ANY` polls every interface.
enum class FilterField : std::uint8_t {
  kSrcIp,
  kDstIp,
  kSrcPort,
  kDstPort,
  kL4Port,     // source OR destination L4 port
  kProto,
  kIfacePort,  // switch interface index; -1 = ANY
  kTrue,       // matches everything
};

struct FilterAtom {
  FilterField field = FilterField::kTrue;
  Prefix prefix;              // kSrcIp / kDstIp
  std::uint16_t port_lo = 0;  // port fields: closed range [lo, hi]
  std::uint16_t port_hi = 0;
  Proto proto = Proto::kTcp;
  std::int32_t iface = -1;  // kIfacePort; -1 = ANY

  // `at_iface` is the interface the packet was observed on; -1 = unknown
  // (interface atoms then match unconditionally, e.g. when a filter is
  // evaluated against a header outside any switch context).
  bool matches(const PacketHeader& h, int at_iface = -1) const;
  std::string to_string() const;
  friend bool operator==(const FilterAtom&, const FilterAtom&) = default;
};

class Filter {
 public:
  // The always-true filter.
  Filter();

  static Filter atom(FilterAtom a);
  static Filter src_ip(Prefix p);
  static Filter dst_ip(Prefix p);
  static Filter src_port(std::uint16_t lo, std::uint16_t hi);
  static Filter dst_port(std::uint16_t lo, std::uint16_t hi);
  static Filter l4_port(std::uint16_t port);
  static Filter proto(Proto p);
  static Filter iface(std::int32_t port_index);  // -1 = all interfaces
  static Filter any_iface() { return iface(-1); }

  static Filter conj(Filter a, Filter b);
  static Filter disj(Filter a, Filter b);
  static Filter negate(Filter a);

  bool matches(const PacketHeader& h, int at_iface = -1) const;
  bool is_true() const;

  // Canonical textual form (stable across equal filters after DNF
  // normalization); used as the aggregation key for polling subjects.
  const std::string& canonical_key() const { return derived().key; }

  // φ_enc: the DNF conjuncts of this filter. Each conjunct corresponds to
  // one (set of) counter(s) the soil must poll; two poll variables share a
  // subject iff they share a canonical conjunct key.
  std::vector<std::string> polling_subjects() const;

  // Number of distinct interfaces referenced; kAllIfaces if the filter
  // polls every interface (e.g. `port ANY`).
  static constexpr int kAllIfaces = -1;
  // Returns kAllIfaces, or the count of concrete interface atoms.
  int iface_footprint() const { return derived().footprint; }
  // Stat entries one poll of this subject reads on a switch with
  // `n_ifaces` interfaces: every interface for kAllIfaces, each named
  // interface, or else the one counter of the subject's TCAM rule.
  int poll_entries(int n_ifaces) const;
  // The concrete (non-negative, deduplicated) interface indices referenced;
  // empty when the filter has no interface atoms or only wildcards.
  const std::vector<std::int32_t>& iface_atoms() const {
    return derived().iface_atoms;
  }

  std::string to_string() const;
  friend bool operator==(const Filter& a, const Filter& b) {
    return a.node_ == b.node_ || a.canonical_key() == b.canonical_key();
  }

 private:
  enum class Op : std::uint8_t { kAtom, kAnd, kOr, kNot };
  // What a node's DNF says about it, derived once per node.
  struct Derived {
    std::string key;
    int footprint = 0;
    std::vector<std::int32_t> iface_atoms;
  };
  struct Node {
    Op op;
    FilterAtom atom;  // kAtom only
    std::shared_ptr<const Node> lhs, rhs;
    // Filled under `once` on first use: filters are shared across the
    // placement worker threads.
    mutable std::once_flag once;
    mutable Derived derived;
  };
  explicit Filter(std::shared_ptr<const Node> n) : node_(std::move(n)) {}
  const Derived& derived() const;

  // DNF as a list of conjunctions of atoms (negations pushed to atoms are
  // not needed: `not` distributes; negated atoms are kept with a flag).
  struct Literal {
    FilterAtom atom;
    bool negated = false;
    std::string to_string() const;
  };
  using Conjunct = std::vector<Literal>;
  std::vector<Conjunct> to_dnf() const;
  static std::vector<Conjunct> dnf_of(const Node* n, bool negated);

  std::shared_ptr<const Node> node_;
};

}  // namespace farm::net

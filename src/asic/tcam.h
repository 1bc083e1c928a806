// Ternary CAM model.
//
// The soil divides TCAM space between packet forwarding and monitoring
// (iSTAMP-style split, §II-B b) so FARM's rule churn can never displace
// forwarding state. Rules carry priorities and hit counters; counters are
// the polling subjects seeds read over the PCIe bus.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/filter.h"
#include "net/packet.h"

namespace farm::asic {

using RuleId = std::uint64_t;
inline constexpr RuleId kInvalidRule = 0;

enum class RuleAction : std::uint8_t {
  kForward,
  kDrop,
  kRateLimit,  // cap the matched traffic to rate_limit_bps
  kMirror,     // copy matched packets to the CPU (Sonata-style streaming)
  kCount,      // pure monitoring rule: count only
};

std::string to_string(RuleAction a);

enum class TcamRegion : std::uint8_t { kForwarding, kMonitoring };

struct TcamRule {
  RuleId id = kInvalidRule;
  TcamRegion region = TcamRegion::kMonitoring;
  int priority = 0;  // higher wins
  net::Filter pattern;
  RuleAction action = RuleAction::kCount;
  double rate_limit_bps = 0;  // kRateLimit only
  std::string note;           // installer-visible tag (e.g. task name)

  // Hit counters, updated by the traffic driver.
  std::uint64_t hit_packets = 0;
  std::uint64_t hit_bytes = 0;

  // Identity comparison: a rule is its TCAM slot.
  friend bool operator==(const TcamRule& a, const TcamRule& b) {
    return a.id == b.id;
  }
};

class Tcam {
 public:
  // `capacity` total entries; `monitoring_reserved` of them are fenced off
  // for M&M rules so forwarding behaviour is never displaced.
  Tcam(int capacity, int monitoring_reserved);

  // Returns the new rule's id, or nullopt if the region is full.
  std::optional<RuleId> add_rule(TcamRule rule);
  // Removes all rules whose pattern equals `pattern` (canonical equality)
  // in the given region; returns removed count.
  int remove_rules(const net::Filter& pattern, TcamRegion region);
  bool remove_rule(RuleId id);
  // Highest-priority rule matching the header across both regions, ties
  // broken by lower id (older rule wins). Does not update counters.
  // `at_iface` is the ingress interface (-1 = unknown) so that rules with
  // interface atoms (e.g. reactions installed on a hitter port) apply only
  // to traffic on that port.
  const TcamRule* match(const net::PacketHeader& h, int at_iface = -1) const;
  const TcamRule* find(RuleId id) const;
  const TcamRule* find(const net::Filter& pattern, TcamRegion region) const;

  // Wipes every rule in both regions (switch power failure). Rule ids keep
  // increasing across reboots so stale ids can never alias new rules.
  void clear();

  // Moves on every change to the rule set (add, remove, clear), never
  // back: a caller that keeps indices into rules() re-derives them when
  // it reads a version other than the one it derived them at. Never 0.
  std::uint64_t version() const { return version_; }
  // Accounts traffic to the hit counters of rules()[index].
  void count_hit(std::size_t index, std::uint64_t packets,
                 std::uint64_t bytes) {
    rules_[index].hit_packets += packets;
    rules_[index].hit_bytes += bytes;
  }

  const std::vector<TcamRule>& rules() const { return rules_; }
  int used(TcamRegion region) const;
  int free_space(TcamRegion region) const;
  int capacity(TcamRegion region) const;

 private:
  int capacity_total_;
  int monitoring_reserved_;
  RuleId next_id_ = 1;
  std::uint64_t version_ = 1;
  std::vector<TcamRule> rules_;
};

}  // namespace farm::asic

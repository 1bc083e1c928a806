#include "asic/tcam.h"

#include <algorithm>

#include "util/check.h"

namespace farm::asic {

std::string to_string(RuleAction a) {
  switch (a) {
    case RuleAction::kForward:
      return "forward";
    case RuleAction::kDrop:
      return "drop";
    case RuleAction::kRateLimit:
      return "rate_limit";
    case RuleAction::kMirror:
      return "mirror";
    case RuleAction::kCount:
      return "count";
  }
  return "?";
}

Tcam::Tcam(int capacity, int monitoring_reserved)
    : capacity_total_(capacity), monitoring_reserved_(monitoring_reserved) {
  FARM_CHECK(capacity >= 0 && monitoring_reserved >= 0 &&
             monitoring_reserved <= capacity);
}

int Tcam::capacity(TcamRegion region) const {
  return region == TcamRegion::kMonitoring
             ? monitoring_reserved_
             : capacity_total_ - monitoring_reserved_;
}

int Tcam::used(TcamRegion region) const {
  int n = 0;
  for (const auto& r : rules_)
    if (r.region == region) ++n;
  return n;
}

int Tcam::free_space(TcamRegion region) const {
  return capacity(region) - used(region);
}

std::optional<RuleId> Tcam::add_rule(TcamRule rule) {
  if (free_space(rule.region) <= 0) return std::nullopt;
  rule.id = next_id_++;
  rule.hit_packets = rule.hit_bytes = 0;
  rules_.push_back(std::move(rule));
  ++version_;
  return rules_.back().id;
}

int Tcam::remove_rules(const net::Filter& pattern, TcamRegion region) {
  // A copy: `pattern` may be the pattern of a rule this call erases.
  const std::string key = pattern.canonical_key();
  int removed = 0;
  std::erase_if(rules_, [&](const TcamRule& r) {
    bool hit = r.region == region && r.pattern.canonical_key() == key;
    removed += hit;
    return hit;
  });
  if (removed > 0) ++version_;
  return removed;
}

bool Tcam::remove_rule(RuleId id) {
  if (std::erase_if(rules_, [&](const TcamRule& r) { return r.id == id; }) ==
      0)
    return false;
  ++version_;
  return true;
}

void Tcam::clear() {
  rules_.clear();
  ++version_;
}

const TcamRule* Tcam::match(const net::PacketHeader& h, int at_iface) const {
  const TcamRule* best = nullptr;
  for (const auto& r : rules_) {
    if (!r.pattern.matches(h, at_iface)) continue;
    if (!best || r.priority > best->priority ||
        (r.priority == best->priority && r.id < best->id))
      best = &r;
  }
  return best;
}

const TcamRule* Tcam::find(RuleId id) const {
  for (const auto& r : rules_)
    if (r.id == id) return &r;
  return nullptr;
}

const TcamRule* Tcam::find(const net::Filter& pattern,
                           TcamRegion region) const {
  const std::string& key = pattern.canonical_key();
  for (const auto& r : rules_)
    if (r.region == region && r.pattern.canonical_key() == key) return &r;
  return nullptr;
}

}  // namespace farm::asic

#include "telemetry/alert.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace farm::telemetry {

std::string to_string(SloKind kind) {
  switch (kind) {
    case SloKind::kThreshold: return "value";
    case SloKind::kRate: return "rate";
    case SloKind::kBurnRate: return "burn";
    case SloKind::kStaleness: return "staleness";
  }
  return "?";
}

std::string to_string(AlertState state) {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "?";
}

// --- Rule grammar ------------------------------------------------------------

namespace {

// Whitespace-tolerant cursor over the rule spec.
struct Cursor {
  std::string_view s;
  void skip_ws() {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
      s.remove_prefix(1);
  }
  bool literal(char c) {
    skip_ws();
    if (s.empty() || s.front() != c) return false;
    s.remove_prefix(1);
    return true;
  }
  // Token up to whitespace or one of `stops`.
  std::string_view token(std::string_view stops) {
    skip_ws();
    std::size_t i = 0;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i])) &&
           stops.find(s[i]) == std::string_view::npos)
      ++i;
    std::string_view t = s.substr(0, i);
    s.remove_prefix(i);
    return t;
  }
  std::optional<double> number() {
    skip_ws();
    double v = 0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{}) return std::nullopt;
    s.remove_prefix(static_cast<std::size_t>(ptr - s.data()));
    return v;
  }
  std::optional<util::Duration> duration() {
    auto v = number();
    if (!v) return std::nullopt;
    std::string_view unit = token("");
    if (unit == "ns") return util::Duration::ns(static_cast<std::int64_t>(*v));
    if (unit == "us") return util::Duration::from_seconds(*v / 1e6);
    if (unit == "ms") return util::Duration::from_seconds(*v / 1e3);
    if (unit == "s") return util::Duration::from_seconds(*v);
    return std::nullopt;
  }
};

}  // namespace

std::optional<SloRule> SloRule::parse(std::string_view spec) {
  SloRule rule;
  Cursor c{spec};
  std::string_view name = c.token(":");
  if (name.empty() || !c.literal(':')) return std::nullopt;
  rule.name = std::string(name);

  std::string_view measure = c.token("(");
  if (measure == "value") rule.kind = SloKind::kThreshold;
  else if (measure == "rate") rule.kind = SloKind::kRate;
  else if (measure == "burn") rule.kind = SloKind::kBurnRate;
  else if (measure == "staleness") rule.kind = SloKind::kStaleness;
  else return std::nullopt;

  if (!c.literal('(')) return std::nullopt;
  std::string_view pattern = c.token(")");
  if (pattern.empty() || !c.literal(')')) return std::nullopt;
  rule.pattern = std::string(pattern);

  if (c.literal('>')) rule.op = SloOp::kGreater;
  else if (c.literal('<')) rule.op = SloOp::kLess;
  else return std::nullopt;
  auto threshold = c.number();
  if (!threshold) return std::nullopt;
  rule.threshold = *threshold;

  for (;;) {
    std::string_view clause = c.token("");
    if (clause.empty()) break;
    if (clause == "for") {
      auto d = c.duration();
      if (!d) return std::nullopt;
      rule.hold = *d;
    } else if (clause == "alpha") {
      auto a = c.number();
      if (!a || *a <= 0 || *a > 1) return std::nullopt;
      rule.alpha = *a;
    } else {
      return std::nullopt;
    }
  }
  return rule;
}

// --- AlertManager ------------------------------------------------------------

AlertManager::AlertManager(Hub& hub) : hub_(hub) {
  m_firing_total_ = hub_.gauge("alert.firing_total");
}

std::size_t AlertManager::add_rule(SloRule rule) {
  RuleMarks marks;
  marks.pending = hub_.counter("alert." + rule.name + ".pending");
  marks.firing = hub_.counter("alert." + rule.name + ".firing");
  marks.resolved = hub_.counter("alert." + rule.name + ".resolved");
  rules_.push_back(std::move(rule));
  marks_.push_back(marks);
  return rules_.size() - 1;
}

bool AlertManager::add_rule(std::string_view spec) {
  auto rule = SloRule::parse(spec);
  if (!rule) return false;
  add_rule(std::move(*rule));
  return true;
}

void AlertManager::discover(std::size_t rule_index) {
  const Registry& reg = hub_.registry();
  RuleMarks& marks = marks_[rule_index];
  for (MetricId id = static_cast<MetricId>(marks.scanned);
       id < reg.size(); ++id) {
    // The manager's own transition marks never feed rules — a staleness
    // rule on "alert.**" would otherwise alert on its own silence.
    const std::string& name = reg.name(id);
    if (name.rfind("alert.", 0) == 0) continue;
    if (!label_matches(name, rules_[rule_index].pattern)) continue;
    std::uint64_t key = (static_cast<std::uint64_t>(rule_index) << 32) | id;
    if (index_.count(key)) continue;
    Alert a;
    a.rule = rule_index;
    a.metric = id;
    index_.emplace(key, alerts_.size());
    alerts_.push_back(a);
  }
  marks.scanned = reg.size();
}

std::optional<double> AlertManager::measure(const SloRule& rule, Alert& a,
                                            TimePoint now) {
  const double raw = hub_.registry().value(a.metric);
  switch (rule.kind) {
    case SloKind::kThreshold:
      return raw;
    case SloKind::kRate:
    case SloKind::kBurnRate: {
      if (!a.seen) {
        a.seen = true;
        a.prev_raw = raw;
        a.prev_at = now;
        return std::nullopt;  // no interval yet
      }
      const double dt = (now - a.prev_at).seconds();
      if (dt <= 0) return a.ewma_primed ? std::optional(a.ewma) : std::nullopt;
      const double rate = (raw - a.prev_raw) / dt;
      a.prev_raw = raw;
      a.prev_at = now;
      if (rule.kind == SloKind::kRate) return rate;
      a.ewma = a.ewma_primed ? rule.alpha * rate + (1 - rule.alpha) * a.ewma
                             : rate;
      a.ewma_primed = true;
      return a.ewma;
    }
    case SloKind::kStaleness: {
      // "Active" = the live aggregate moved since the last tick; silence
      // is measured from the last movement, at evaluation granularity.
      if ((a.seen && raw != a.prev_raw) || (!a.ever_active && raw != 0)) {
        a.ever_active = true;
        a.last_active = now;
      }
      a.seen = true;
      a.prev_raw = raw;
      if (!a.ever_active) return std::nullopt;  // source never produced
      return (now - a.last_active).seconds();
    }
  }
  return std::nullopt;
}

void AlertManager::step(Alert& a, TimePoint now) {
  const SloRule& rule = rules_[a.rule];
  std::optional<double> m = measure(rule, a, now);
  if (!m) return;
  a.value = *m;
  const bool breach = rule.op == SloOp::kGreater ? *m > rule.threshold
                                                 : *m < rule.threshold;
  const RuleMarks& marks = marks_[a.rule];
  auto emit = [&](MetricId mark) {
    ++transitions_;
    hub_.mark(mark, a.value);
  };
  auto go = [&](AlertState to) {
    a.state = to;
    switch (to) {
      case AlertState::kPending:
        a.pending_since = now;
        emit(marks.pending);
        break;
      case AlertState::kFiring:
        a.firing_since = now;
        ++a.fires;
        emit(marks.firing);
        break;
      case AlertState::kResolved:
        a.resolved_at = now;
        emit(marks.resolved);
        break;
      case AlertState::kInactive:
        break;  // pending that cleared before the hold elapsed; no mark
    }
  };
  switch (a.state) {
    case AlertState::kInactive:
    case AlertState::kResolved:
      if (breach) {
        go(AlertState::kPending);
        if (!rule.hold.is_positive()) go(AlertState::kFiring);
      }
      break;
    case AlertState::kPending:
      if (!breach)
        a.state = AlertState::kInactive;  // cleared before the hold; silent
      else if (now - a.pending_since >= rule.hold)
        go(AlertState::kFiring);
      break;
    case AlertState::kFiring:
      if (!breach) go(AlertState::kResolved);
      break;
  }
}

void AlertManager::evaluate(TimePoint now) {
  ++evaluations_;
  for (std::size_t r = 0; r < rules_.size(); ++r) discover(r);
  for (Alert& a : alerts_) step(a, now);
  hub_.level(m_firing_total_, static_cast<double>(firing_count()));
}

const Alert* AlertManager::find(std::string_view name,
                                std::string_view metric_label) const {
  for (const Alert& a : alerts_) {
    if (rules_[a.rule].name != name) continue;
    if (!metric_label.empty() &&
        hub_.registry().name(a.metric) != metric_label)
      continue;
    return &a;
  }
  return nullptr;
}

std::size_t AlertManager::firing_count() const {
  return static_cast<std::size_t>(
      std::count_if(alerts_.begin(), alerts_.end(), [](const Alert& a) {
        return a.state == AlertState::kFiring;
      }));
}

bool AlertManager::any_firing(std::string_view pattern) const {
  for (const Alert& a : alerts_)
    if (a.state == AlertState::kFiring &&
        label_matches(hub_.registry().name(a.metric), pattern))
      return true;
  return false;
}

}  // namespace farm::telemetry

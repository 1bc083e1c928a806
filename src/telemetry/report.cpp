#include "telemetry/report.h"

#include <cstdio>
#include <functional>
#include <map>

#include "telemetry/export.h"
#include "util/check.h"

namespace farm::telemetry {

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fixed(double v, int digits = 3) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

// 10-cell health bar: [########--] 0.800
std::string bar(double score) {
  int cells = static_cast<int>(score * 10 + 0.5);
  std::string out = "[";
  for (int i = 0; i < 10; ++i) out += i < cells ? '#' : '-';
  out += "] " + fixed(score);
  return out;
}

// Totals of every registry aggregate grouped by the first label component
// ("soil", "pcie", "bus", ...) — the at-a-glance rollup for the text form.
std::map<std::string, std::pair<std::size_t, double>> component_totals(
    const Registry& reg) {
  std::map<std::string, std::pair<std::size_t, double>> out;
  for (MetricId id = 0; id < reg.size(); ++id) {
    auto& slot = out[std::string(label_component(reg.name(id), 0))];
    slot.first += 1;
    slot.second += reg.value(id);
  }
  return out;
}

}  // namespace

void write_farm_report(std::ostream& os, const ReportInputs& in) {
  FARM_CHECK(in.hub != nullptr);
  const Hub& hub = *in.hub;
  os << "=== " << in.title << " @ " << fixed(in.now.seconds()) << "s"
     << " (virtual) ===\n";
  os << "metrics " << hub.registry().size() << "; events "
     << hub.events().total_appended() << " recorded, " << hub.events().dropped()
     << " evicted\n";

  if (in.health) {
    os << "\n--- fabric health ---\n";
    for (const auto& node : in.health->flatten()) {
      os << std::string(static_cast<std::size_t>(node.depth) * 2, ' ')
         << bar(node.score) << "  " << node.name << "\n";
    }
  }

  if (in.alerts) {
    os << "\n--- alerts (" << in.alerts->firing_count() << " firing) ---\n";
    bool any = false;
    for (const Alert& a : in.alerts->alerts()) {
      if (a.state == AlertState::kInactive && a.fires == 0) continue;
      any = true;
      const SloRule& rule = in.alerts->rules()[a.rule];
      os << "  " << rule.name << " [" << hub.registry().name(a.metric)
         << "] " << to_string(a.state) << " value=" << fixed(a.value)
         << " fires=" << a.fires;
      if (a.state == AlertState::kFiring)
        os << " since=" << fixed(a.firing_since.seconds()) << "s";
      if (a.state == AlertState::kResolved)
        os << " resolved=" << fixed(a.resolved_at.seconds()) << "s";
      os << "\n";
    }
    if (!any) os << "  (none ever left inactive)\n";
  }

  os << "\n--- metric totals by subsystem ---\n";
  for (const auto& [component, slot] : component_totals(hub.registry()))
    os << "  " << component << ": " << slot.first
       << " metrics, total " << num(slot.second) << "\n";

  if (in.profile) {
    os << "\n--- control-plane profile (furrow, wall-clock) ---\n";
    write_prof_report(os, *in.profile);
  }
}

void write_farm_report_json(std::ostream& os, const ReportInputs& in) {
  FARM_CHECK(in.hub != nullptr);
  const Hub& hub = *in.hub;
  const Registry& reg = hub.registry();
  os << "{\"title\":\"" << json_escape(in.title) << "\",\"time_s\":"
     << num(in.now.seconds())
     << ",\"events\":{\"appended\":" << hub.events().total_appended()
     << ",\"retained\":" << hub.events().size()
     << ",\"dropped\":" << hub.events().dropped() << "}";

  os << ",\"alerts\":[";
  if (in.alerts) {
    bool first = true;
    for (const Alert& a : in.alerts->alerts()) {
      const SloRule& rule = in.alerts->rules()[a.rule];
      if (!first) os << ",";
      first = false;
      os << "\n{\"rule\":\"" << json_escape(rule.name) << "\",\"metric\":\""
         << json_escape(reg.name(a.metric)) << "\",\"state\":\""
         << to_string(a.state) << "\",\"value\":" << num(a.value)
         << ",\"fires\":" << a.fires;
      if (a.fires > 0 || a.state != AlertState::kInactive)
        os << ",\"pending_since_s\":" << num(a.pending_since.seconds())
           << ",\"firing_since_s\":" << num(a.firing_since.seconds())
           << ",\"resolved_at_s\":" << num(a.resolved_at.seconds());
      os << "}";
    }
  }
  os << "]";

  os << ",\"health\":[";
  if (in.health) {
    bool first = true;
    for (const auto& node : in.health->flatten()) {
      if (!first) os << ",";
      first = false;
      os << "\n{\"name\":\"" << json_escape(node.name) << "\",\"score\":"
         << num(node.score) << ",\"depth\":" << node.depth << ",\"leaf\":"
         << (node.leaf ? "true" : "false") << "}";
    }
  }
  os << "]";

  os << ",\"metrics\":[";
  for (MetricId id = 0; id < reg.size(); ++id) {
    if (id) os << ",";
    os << "\n{\"name\":\"" << json_escape(reg.name(id)) << "\",\"kind\":\""
       << to_string(reg.kind(id)) << "\",\"value\":" << num(reg.value(id))
       << "}";
  }
  os << "]";

  if (in.profile) {
    const prof::Snapshot& snap = *in.profile;
    os << ",\"profile\":{\"total_ns\":" << snap.root.total_ns
       << ",\"stacks\":[";
    bool first = true;
    std::string path;
    std::function<void(const prof::ProfNode&)> walk =
        [&](const prof::ProfNode& node) {
          std::size_t saved = path.size();
          if (!path.empty()) path += ';';
          path += node.name;
          if (!first) os << ",";
          first = false;
          os << "\n{\"path\":\"" << json_escape(path)
             << "\",\"count\":" << node.count
             << ",\"total_ns\":" << node.total_ns
             << ",\"self_ns\":" << node.self_ns
             << ",\"max_ns\":" << node.max_ns << "}";
          for (const prof::ProfNode& c : node.children) walk(c);
          path.resize(saved);
        };
    for (const prof::ProfNode& c : snap.root.children) walk(c);
    os << "],\"counters\":[";
    first = true;
    for (const prof::ProfCounter& c : snap.counters) {
      if (!first) os << ",";
      first = false;
      os << "\n{\"name\":\"" << json_escape(c.name)
         << "\",\"value\":" << c.value << "}";
    }
    os << "]}";
  }
  os << "}\n";
}

}  // namespace farm::telemetry

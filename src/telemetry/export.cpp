#include "telemetry/export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <vector>

#include "telemetry/hub.h"
#include "util/check.h"
#include "util/log.h"

namespace farm::telemetry {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// Microsecond timestamps as a decimal (chrome trace "ts"/"dur" unit).
std::string us(util::TimePoint t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(t.count_ns()) / 1e3);
  return buf;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Raw wall-clock nanoseconds as microsecond decimal (Furrow rows).
std::string us_ns(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

// Synthetic layout of one profile subtree (see write_prof_chrome_trace):
// children are placed back to back from the parent's start; the parent's
// self time is the tail left after the last child.
void emit_prof_node(std::ostream& os, const prof::ProfNode& node,
                    std::uint64_t start_ns,
                    const std::function<void()>& sep) {
  sep();
  os << "{\"name\":\"" << json_escape(node.name)
     << "\",\"cat\":\"prof\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":"
     << us_ns(start_ns) << ",\"dur\":" << us_ns(node.total_ns)
     << ",\"args\":{\"count\":" << node.count
     << ",\"self_us\":" << us_ns(node.self_ns)
     << ",\"max_us\":" << us_ns(node.max_ns) << "}}";
  std::uint64_t offset = start_ns;
  for (const prof::ProfNode& c : node.children) {
    emit_prof_node(os, c, offset, sep);
    offset += c.total_ns;
  }
}

// The Furrow process row: pid 2 metadata, the call tree on tid 1, counters
// as "C" samples on tid 0. Shared by the standalone profile export and the
// combined hub trace.
void emit_prof_rows(std::ostream& os, const prof::Snapshot& snap,
                    const std::function<void()>& sep) {
  sep();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
     << "\"args\":{\"name\":\"farm control plane (wall-clock)\"}}";
  sep();
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
     << "\"args\":{\"name\":\"furrow call tree\"}}";
  std::uint64_t offset = 0;
  for (const prof::ProfNode& c : snap.root.children) {
    emit_prof_node(os, c, offset, sep);
    offset += c.total_ns;
  }
  for (const prof::ProfCounter& c : snap.counters) {
    sep();
    os << "{\"name\":\"" << json_escape(c.name)
       << "\",\"cat\":\"prof\",\"ph\":\"C\",\"pid\":2,\"tid\":0,\"ts\":0,"
       << "\"args\":{\"value\":" << c.value << "}}";
  }
}

void collapse_node(std::ostream& os, const prof::ProfNode& node,
                   std::string& path, CollapsedWeight weight) {
  std::size_t saved = path.size();
  if (!path.empty()) path += ';';
  path += node.name;
  os << path << ' '
     << (weight == CollapsedWeight::kSelfNs ? node.self_ns : node.count)
     << '\n';
  for (const prof::ProfNode& c : node.children)
    collapse_node(os, c, path, weight);
  path.resize(saved);
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Hub& hub,
                        const ChromeTraceOptions& options) {
  const Tracer& tracer = hub.tracer();
  const EventStore& store = hub.events();
  const Registry& reg = hub.registry();
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  os << "{\"traceEvents\":[\n";
  // Track (thread) names, then spans per track. pid 1 = the simulation.
  for (TrackId t = 0; t < tracer.track_count(); ++t) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << (t + 1)
       << ",\"args\":{\"name\":\"" << json_escape(tracer.track_name(t))
       << "\"}}";
    tracer.for_each_span(t, [&](const Span& s) {
      sep();
      os << "{\"name\":\"" << json_escape(s.name)
         << "\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (t + 1)
         << ",\"ts\":" << us(s.begin) << ",\"dur\":"
         << num(static_cast<double>((s.end - s.begin).count_ns()) / 1e3)
         << ",\"args\":{\"depth\":" << s.depth << "}}";
    });
  }
  // Metric events ride on tid 0; counters/gauges as "C" samples so the
  // viewer draws them as series, marks as instant events.
  std::size_t begin = 0;
  if (options.last_events > 0 && store.size() > options.last_events)
    begin = store.size() - options.last_events;
  // For counters chrome expects the running level, not the delta; fold the
  // retained prefix (including rows below `begin`) into per-metric levels
  // in one pass so truncated exports still show correct totals.
  std::vector<double> level(reg.size(), 0);
  std::size_t i = 0;
  hub.query().for_each([&](const EventRow& r) {
    if (r.kind == EventKind::kAdd && r.metric < level.size())
      level[r.metric] += r.value;
    if (i++ < begin) return;
    const std::string& name = reg.name(r.metric);
    sep();
    if (r.kind == EventKind::kMark) {
      os << "{\"name\":\"" << json_escape(name)
         << "\",\"cat\":\"mark\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,"
         << "\"tid\":0,\"ts\":" << us(r.at) << ",\"args\":{\"value\":"
         << num(r.value) << "}}";
    } else {
      double v = r.kind == EventKind::kAdd && r.metric < level.size()
                     ? level[r.metric]
                     : r.value;
      os << "{\"name\":\"" << json_escape(name)
         << "\",\"cat\":\"metric\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
         << "\"ts\":" << us(r.at) << ",\"args\":{\"value\":" << num(v)
         << "}}";
    }
  });
  if (options.profile != nullptr && !options.profile->empty())
    emit_prof_rows(os, *options.profile, sep);
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
     << "\"clock\":\"sim-virtual-time\",\"reason\":\""
     << json_escape(options.reason) << "\",\"events_total\":"
     << store.total_appended() << ",\"events_exported\":"
     << (store.size() - begin) << "}}\n";
}

void write_prof_collapsed(std::ostream& os, const prof::Snapshot& snap,
                          CollapsedWeight weight) {
  std::string path;
  for (const prof::ProfNode& c : snap.root.children)
    collapse_node(os, c, path, weight);
}

void write_prof_chrome_trace(std::ostream& os, const prof::Snapshot& snap,
                             const ChromeTraceOptions& options) {
  bool first = true;
  std::function<void()> sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  os << "{\"traceEvents\":[\n";
  emit_prof_rows(os, snap, sep);
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
     << "\"clock\":\"wall-clock\",\"reason\":\""
     << json_escape(options.reason) << "\"}}\n";
}

void write_prof_report(std::ostream& os, const prof::Snapshot& snap,
                       std::size_t top_n) {
  if (snap.empty()) {
    os << "profile: (no data — profiler disabled)\n";
    return;
  }
  // Flatten to (path, node) rows, ranked by self time; ties break on path
  // so the table is deterministic under the zero test clock.
  struct Row {
    std::string path;
    const prof::ProfNode* node;
  };
  std::vector<Row> rows;
  std::string path;
  std::function<void(const prof::ProfNode&)> flatten =
      [&](const prof::ProfNode& node) {
        std::size_t saved = path.size();
        if (!path.empty()) path += ';';
        path += node.name;
        rows.push_back({path, &node});
        for (const prof::ProfNode& c : node.children) flatten(c);
        path.resize(saved);
      };
  for (const prof::ProfNode& c : snap.root.children) flatten(c);
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.node->self_ns != b.node->self_ns)
      return a.node->self_ns > b.node->self_ns;
    return a.path < b.path;
  });
  if (rows.size() > top_n) rows.resize(top_n);

  char line[256];
  os << "total wall: " << us_ns(snap.root.total_ns) << " us across "
     << snap.root.children.size() << " root scopes\n";
  std::snprintf(line, sizeof(line), "%12s %12s %10s %12s  %s\n", "self(us)",
                "total(us)", "count", "max(us)", "path");
  os << line;
  for (const Row& r : rows) {
    std::snprintf(line, sizeof(line), "%12s %12s %10llu %12s  %s\n",
                  us_ns(r.node->self_ns).c_str(),
                  us_ns(r.node->total_ns).c_str(),
                  static_cast<unsigned long long>(r.node->count),
                  us_ns(r.node->max_ns).c_str(), r.path.c_str());
    os << line;
  }
  if (!snap.counters.empty()) {
    os << "counters:\n";
    for (const prof::ProfCounter& c : snap.counters) {
      std::snprintf(line, sizeof(line), "  %-32s %llu\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.value));
      os << line;
    }
  }
}

void write_csv(std::ostream& os, const Query& query,
               const Registry& registry) {
  os << "time_s,metric,kind,value\n";
  query.for_each([&](const EventRow& r) {
    os << num(r.at.seconds()) << ',' << registry.name(r.metric) << ','
       << to_string(r.kind) << ',' << num(r.value) << '\n';
  });
}

void write_json_series(std::ostream& os, const Query& query,
                       const Registry& registry) {
  os << "[";
  bool first = true;
  query.for_each([&](const EventRow& r) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"t\":" << num(r.at.seconds()) << ",\"metric\":\""
       << json_escape(registry.name(r.metric)) << "\",\"kind\":\""
       << to_string(r.kind) << "\",\"value\":" << num(r.value) << "}";
  });
  os << "\n]\n";
}

}  // namespace farm::telemetry

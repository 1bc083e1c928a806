// Granary telemetry subsystem tests: registry semantics, histogram bucket
// boundaries, event-store ring + query API, span tracer, chrome-trace
// export well-formedness, and the flight recorder.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "telemetry/export.h"
#include "telemetry/hub.h"
#include "util/check.h"
#include "util/pool.h"

namespace farm::telemetry {
namespace {

using sim::Duration;
using util::TimePoint;

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::origin() + Duration::ms(ms);
}

// --- Labels ------------------------------------------------------------------

TEST(Labels, MatchingRules) {
  EXPECT_TRUE(label_matches("soil.sw12.poll_bytes", "soil.sw12.poll_bytes"));
  EXPECT_TRUE(label_matches("soil.sw12.poll_bytes", "soil.*.poll_bytes"));
  EXPECT_TRUE(label_matches("soil.sw12.poll_bytes", "soil.**"));
  EXPECT_TRUE(label_matches("soil.sw12.poll_bytes", "**"));
  EXPECT_FALSE(label_matches("soil.sw12.poll_bytes", "soil.*"));
  EXPECT_FALSE(label_matches("soil.sw12.poll_bytes", "soil.*.poll_ms"));
  EXPECT_FALSE(label_matches("soil.sw12.poll_bytes", "bus.**"));
  // '*' is exactly one component, never two.
  EXPECT_FALSE(label_matches("a.b.c", "a.*"));
  EXPECT_TRUE(label_matches("a.b", "a.*"));
}

TEST(Labels, Component) {
  EXPECT_EQ(label_component("soil.sw12.poll_bytes", 0), "soil");
  EXPECT_EQ(label_component("soil.sw12.poll_bytes", 1), "sw12");
  EXPECT_EQ(label_component("soil.sw12.poll_bytes", 2), "poll_bytes");
  EXPECT_EQ(label_component("soil.sw12.poll_bytes", 3), "");
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, FindOrCreateAndLookup) {
  Registry reg;
  MetricId a = reg.counter("bus.up.bytes");
  MetricId b = reg.counter("bus.up.bytes");
  EXPECT_EQ(a, b);  // re-registration returns the original id
  EXPECT_EQ(reg.find("bus.up.bytes"), a);
  EXPECT_EQ(reg.find("bus.down.bytes"), kInvalidMetric);
  EXPECT_EQ(reg.name(a), "bus.up.bytes");
  EXPECT_EQ(reg.kind(a), MetricKind::kCounter);

  reg.add(a, 10);
  reg.add(a, 32);
  EXPECT_DOUBLE_EQ(reg.value(a), 42);
}

TEST(Registry, KindCollisionIsRejected) {
  Registry reg;
  reg.counter("x.y");
  // Same name, different kind: the non-fatal API reports the collision.
  EXPECT_FALSE(reg.try_register("x.y", MetricKind::kGauge).has_value());
  EXPECT_FALSE(reg.try_register("x.y", MetricKind::kHistogram).has_value());
  // Same kind is a cache hit, not a collision.
  auto again = reg.try_register("x.y", MetricKind::kCounter);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, reg.find("x.y"));
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, BucketBoundariesAreInclusiveUpperEdges) {
  Histogram h(HistogramSpec{{1.0, 10.0, 100.0}});
  // Prometheus "le": v lands in the first bucket with v <= bound.
  EXPECT_EQ(h.bucket_index(0.5), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 0u);   // exactly on the edge: lower bucket
  EXPECT_EQ(h.bucket_index(1.0001), 1u);
  EXPECT_EQ(h.bucket_index(10.0), 1u);
  EXPECT_EQ(h.bucket_index(100.0), 2u);
  EXPECT_EQ(h.bucket_index(100.1), 3u);  // overflow bucket

  h.observe(0.5);
  h.observe(1.0);
  h.observe(50.0);
  h.observe(1e9);
  ASSERT_EQ(h.counts().size(), 4u);  // bounds + overflow
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 0u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, SpecGenerators) {
  auto exp = HistogramSpec::exponential(1.0, 2.0, 4);
  ASSERT_EQ(exp.bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(exp.bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(exp.bounds[3], 8.0);
  auto lin = HistogramSpec::linear(10.0, 5.0, 3);
  ASSERT_EQ(lin.bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(lin.bounds[2], 20.0);
}

TEST(Histogram, PercentileReportsBucketUpperEdge) {
  Histogram h(HistogramSpec{{1.0, 10.0, 100.0}});
  for (int i = 0; i < 90; ++i) h.observe(0.5);   // bucket 0
  for (int i = 0; i < 10; ++i) h.observe(50.0);  // bucket 2
  EXPECT_DOUBLE_EQ(h.percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 100.0);
  // Clamped out-of-range p, exact at the ends.
  EXPECT_DOUBLE_EQ(h.percentile(-5), h.percentile(0));
  EXPECT_DOUBLE_EQ(h.percentile(400), h.percentile(100));
}

// --- Event store + query -----------------------------------------------------

TEST(EventStore, RingWraparoundKeepsNewest) {
  EventStore store(4);
  for (int i = 0; i < 10; ++i)
    store.append(at_ms(i), 0, EventKind::kAdd, i);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.total_appended(), 10u);
  EXPECT_EQ(store.dropped(), 6u);
  // Oldest retained → newest: values 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(store.row(i).value, 6.0 + static_cast<double>(i));
}

TEST(Query, WindowAndLabelFilters) {
  Registry reg;
  EventStore store;
  MetricId up = reg.counter("bus.up.bytes");
  MetricId down = reg.counter("bus.down.bytes");
  for (int i = 0; i < 10; ++i) {
    store.append(at_ms(i), up, EventKind::kAdd, 100);
    store.append(at_ms(i), down, EventKind::kAdd, 7);
  }
  EXPECT_EQ(Query(store, reg).label("bus.up.bytes").count(), 10u);
  EXPECT_DOUBLE_EQ(Query(store, reg).label("bus.up.bytes").sum(), 1000);
  EXPECT_DOUBLE_EQ(Query(store, reg).label("bus.*.bytes").sum(), 1070);
  // window() is inclusive on both ends.
  EXPECT_EQ(
      Query(store, reg).label("bus.up.bytes").window(at_ms(3), at_ms(5)).count(),
      3u);
  EXPECT_DOUBLE_EQ(
      Query(store, reg).metric(down).since(at_ms(8)).sum(), 14);
  EXPECT_EQ(Query(store, reg).label("nope.**").count(), 0u);
}

TEST(Query, GroupByComponentAndPercentile) {
  Registry reg;
  EventStore store;
  MetricId a = reg.counter("soil.leaf1.polls");
  MetricId b = reg.counter("soil.leaf2.polls");
  store.append(at_ms(0), a, EventKind::kAdd, 1);
  store.append(at_ms(1), a, EventKind::kAdd, 1);
  store.append(at_ms(2), b, EventKind::kAdd, 1);
  auto by_switch = Query(store, reg).label("soil.*.polls").sum_by_component(1);
  ASSERT_EQ(by_switch.size(), 2u);
  EXPECT_DOUBLE_EQ(by_switch["leaf1"], 2);
  EXPECT_DOUBLE_EQ(by_switch["leaf2"], 1);

  MetricId lat = reg.histogram("lat", HistogramSpec{{1, 2, 4}});
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0})
    store.append(at_ms(3), lat, EventKind::kObserve, v);
  auto q = Query(store, reg).metric(lat);
  EXPECT_DOUBLE_EQ(q.percentile(0), 1.0);    // exact min
  EXPECT_DOUBLE_EQ(q.percentile(100), 5.0);  // exact max
  EXPECT_DOUBLE_EQ(q.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(q.percentile(-10), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(q.min(), 1.0);
  EXPECT_DOUBLE_EQ(q.max(), 5.0);
  EXPECT_DOUBLE_EQ(q.mean(), 3.0);
}

TEST(Query, PercentileGoldens) {
  Registry reg;
  MetricId a = reg.counter("m.a");
  MetricId b = reg.counter("m.b");
  MetricId c = reg.counter("m.c");
  EventStore store;
  const double vals[] = {5, 1, 3, 2, 4};
  const MetricId ms[] = {a, b, c, a, b};
  for (int i = 0; i < 5; ++i)
    store.append(at_ms(i), ms[i], EventKind::kObserve, vals[i]);
  Query q(store, reg);
  EXPECT_DOUBLE_EQ(q.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(q.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(q.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(q.percentile(-10), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(q.mean(), 3.0);
  EXPECT_EQ(q.count(), 5u);
}

TEST(Query, TotalReadsLiveAggregatesAcrossEviction) {
  Hub hub({.store_capacity = 8});
  MetricId m = hub.counter("hot.counter");
  for (int i = 0; i < 100; ++i) hub.add(m, 2);
  // The ring only retains 8 rows, but the registry total is exact.
  EXPECT_EQ(hub.events().size(), 8u);
  EXPECT_DOUBLE_EQ(hub.query().label("hot.counter").sum(), 16);
  EXPECT_DOUBLE_EQ(hub.query().label("hot.counter").total(), 200);
  // A wildcard total sums the live aggregate of every matching metric.
  hub.add(hub.counter("hot.other"), 3);
  EXPECT_DOUBLE_EQ(hub.query().label("hot.*").total(), 203);
}

TEST(Silo, TotalIsEvictionImmuneAtAnyShardCount) {
  // Tiny ring: nearly everything is evicted, yet total() (registry-backed)
  // stays exact. silo_shards still accepts 0 and 1, and both keep the one
  // ring, so they must retain and total alike.
  std::size_t retained[2] = {};
  for (std::size_t shards : {0u, 1u}) {
    Hub hub({.store_capacity = 32, .silo_shards = shards});
    MetricId a = hub.counter("hot.a");
    MetricId b = hub.counter("hot.b");
    for (int i = 0; i < 1000; ++i) {
      hub.add(a, 2);
      hub.add(b, 3);
    }
    EXPECT_GT(hub.events().dropped(), 0u);
    EXPECT_DOUBLE_EQ(hub.query().label("hot.*").total(), 5000.0);
    EXPECT_DOUBLE_EQ(hub.query().label("hot.a").total(), 2000.0);
    retained[shards] = hub.events().size();
  }
  EXPECT_EQ(retained[0], 32u);
  EXPECT_EQ(retained[1], 32u);
}

// --- Tracer ------------------------------------------------------------------

TEST(Tracer, NestingDepthAndInterleavedEnds) {
  Tracer tr;
  TrackId t = tr.track("soil.sw1");
  EXPECT_EQ(tr.track("soil.sw1"), t);  // find-or-create

  SpanId outer = tr.begin(t, "round", at_ms(0));
  SpanId inner = tr.begin(t, "poll", at_ms(1));
  tr.end(t, inner, at_ms(2));
  tr.end(t, outer, at_ms(5));
  tr.end(t, outer, at_ms(9));  // double-end: harmless no-op
  tr.end(t, 12345, at_ms(9));  // unknown id: harmless no-op

  auto spans = tr.spans(t);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "poll");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "round");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_EQ(spans[1].end, at_ms(5));
  EXPECT_EQ(tr.open_count(t), 0u);
}

TEST(Tracer, RingWraparound) {
  Tracer tr(/*track_capacity=*/4);
  TrackId t = tr.track("x");
  for (int i = 0; i < 10; ++i) {
    SpanId s = tr.begin(t, "s", at_ms(i));
    tr.end(t, s, at_ms(i));
  }
  EXPECT_EQ(tr.completed_total(t), 10u);
  auto spans = tr.spans(t);
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().begin, at_ms(6));  // oldest retained
  EXPECT_EQ(spans.back().begin, at_ms(9));
}

// --- Hub ---------------------------------------------------------------------

TEST(Hub, EngineStampsVirtualTime) {
  sim::Engine engine;
  Hub& hub = engine.telemetry();
  MetricId m = hub.counter("t.probe");
  engine.schedule_at(at_ms(250), [&] { hub.add(m); });
  engine.run_for(Duration::sec(1));
  auto row = hub.query().metric(m).first();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->at, at_ms(250));
  // The engine's own event counter ticked (registry-only).
  EXPECT_GE(hub.query().label("sim.engine.events").total(), 1.0);
}

TEST(Hub, RetentionIsIndependentOfThreadCount) {
  // What the ring keeps depends only on its capacity: the same skewed
  // append stream (one hot switch, seven quiet ones) leaves the same rows,
  // the same windowed answers and the same flight record at any thread
  // count.
  struct Outcome {
    std::size_t rows = 0;
    std::size_t count = 0;
    double sum = 0;
    std::optional<EventRow> first;
    std::string trace;
  };
  auto run = [](int threads) {
    util::ScopedThreads scoped(threads);
    Hub hub({.store_capacity = 4096});
    std::int64_t now_ms = 0;
    hub.set_clock([&now_ms] { return at_ms(now_ms); });
    MetricId hot = hub.counter("soil.sw0.poll_requests");
    std::vector<MetricId> quiet;
    for (int s = 1; s <= 7; ++s)
      quiet.push_back(
          hub.counter("soil.sw" + std::to_string(s) + ".poll_requests"));
    std::size_t next_quiet = 0;
    for (int i = 0; i < 20000; ++i, ++now_ms)
      hub.add(i % 10 < 7 ? hot : quiet[next_quiet++ % quiet.size()],
              1 + i % 3);
    Outcome out;
    out.rows = hub.events().size();
    Query q = hub.query().label("soil.sw3.poll_requests");
    out.count = q.count();
    out.sum = q.sum();
    out.first = q.first();
    std::ostringstream os;
    write_chrome_trace(os, hub, {.reason = "retention"});
    out.trace = os.str();
    return out;
  };
  const Outcome one = run(1);
  EXPECT_EQ(one.rows, 4096u);
  ASSERT_TRUE(one.first.has_value());
  for (int threads : {4, 16}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Outcome n = run(threads);
    EXPECT_EQ(n.rows, one.rows);
    EXPECT_EQ(n.count, one.count);
    EXPECT_EQ(n.sum, one.sum);
    ASSERT_TRUE(n.first.has_value());
    EXPECT_EQ(n.first->at, one.first->at);
    EXPECT_EQ(n.first->value, one.first->value);
    EXPECT_EQ(n.trace, one.trace);
  }
}

// --- Chrome trace export -----------------------------------------------------

// Minimal JSON validator: verifies balanced braces/brackets outside strings
// and correct string escaping — enough to catch malformed emission without a
// real JSON parser in the test deps.
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) { escaped = false; continue; }
      if (c == '\\') { escaped = true; continue; }
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST(Export, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
}

Hub& populated_hub(sim::Engine& engine) {
  Hub& hub = engine.telemetry();
  MetricId c = hub.counter("bus.up.bytes");
  MetricId g = hub.gauge("pcie.sw.free_at_ns");
  MetricId mk = hub.counter("chaos.switch_crash");
  TrackId t = hub.track("soil.sw\"1");  // name needing escaping
  engine.schedule_at(at_ms(1), [&hub, c, g, mk, t] {
    hub.add(c, 100);
    hub.set(g, 5e6);
    hub.mark(mk, 3);
    SpanId s = hub.begin_span(t, "poll");
    hub.end_span(t, s);
  });
  engine.run_for(Duration::ms(10));
  return hub;
}

TEST(Export, ChromeTraceWellFormed) {
  sim::Engine engine;
  Hub& hub = populated_hub(engine);
  std::ostringstream os;
  write_chrome_trace(os, hub, {.reason = "unit \"test\""});
  std::string out = os.str();
  EXPECT_TRUE(json_well_formed(out)) << out;
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);  // span
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);  // counter sample
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);  // mark
  EXPECT_NE(out.find("sim-virtual-time"), std::string::npos);
}

TEST(Export, CsvAndJsonSeries) {
  sim::Engine engine;
  Hub& hub = populated_hub(engine);
  std::ostringstream csv;
  write_csv(csv, hub.query().label("bus.up.bytes"), hub.registry());
  EXPECT_NE(csv.str().find("bus.up.bytes"), std::string::npos);
  std::ostringstream js;
  write_json_series(js, hub.query().label("**"), hub.registry());
  EXPECT_TRUE(json_well_formed(js.str())) << js.str();
}

// --- Chrome trace parse-back -------------------------------------------------

// Tiny recursive-descent JSON reader — enough structure to walk the trace
// back out of the exporter (objects, arrays, strings, numbers, literals).
// Deliberately strict: any syntax surprise fails the parse and the test.
struct JsonValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject } type = kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse() {
    auto v = value();
    skip_ws();
    if (!v || pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t'))
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  std::optional<JsonValue> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f' || c == 'n') return literal();
    return number();
  }

  std::optional<JsonValue> object() {
    JsonValue v;
    v.type = JsonValue::kObject;
    if (!eat('{')) return std::nullopt;
    if (eat('}')) return v;
    do {
      auto key = string_value();
      if (!key || !eat(':')) return std::nullopt;
      auto val = value();
      if (!val) return std::nullopt;
      v.object.emplace(key->string, std::move(*val));
    } while (eat(','));
    if (!eat('}')) return std::nullopt;
    return v;
  }

  std::optional<JsonValue> array() {
    JsonValue v;
    v.type = JsonValue::kArray;
    if (!eat('[')) return std::nullopt;
    if (eat(']')) return v;
    do {
      auto val = value();
      if (!val) return std::nullopt;
      v.array.push_back(std::move(*val));
    } while (eat(','));
    if (!eat(']')) return std::nullopt;
    return v;
  }

  std::optional<JsonValue> string_value() {
    if (!eat('"')) return std::nullopt;
    JsonValue v;
    v.type = JsonValue::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        char e = text_[pos_++];
        switch (e) {
          case '"': v.string += '"'; break;
          case '\\': v.string += '\\'; break;
          case '/': v.string += '/'; break;
          case 'n': v.string += '\n'; break;
          case 'r': v.string += '\r'; break;
          case 't': v.string += '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) return std::nullopt;
            pos_ += 4;  // escaped control char; content irrelevant here
            v.string += '?';
            break;
          default: return std::nullopt;
        }
      } else {
        v.string += c;
      }
    }
    if (!eat('"')) return std::nullopt;
    return v;
  }

  std::optional<JsonValue> literal() {
    JsonValue v;
    auto match = [&](std::string_view word) {
      if (text_.substr(pos_, word.size()) != word) return false;
      pos_ += word.size();
      return true;
    };
    if (match("true")) { v.type = JsonValue::kBool; v.boolean = true; return v; }
    if (match("false")) { v.type = JsonValue::kBool; return v; }
    if (match("null")) return v;
    return std::nullopt;
  }

  std::optional<JsonValue> number() {
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) return std::nullopt;
    JsonValue v;
    v.type = JsonValue::kNumber;
    v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                           nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST(Export, ChromeTraceParsesBack) {
  sim::Engine engine;
  Hub& hub = engine.telemetry();
  MetricId c = hub.counter("bus.up.bytes");
  MetricId g = hub.gauge("pcie.sw.free_at_ns");
  MetricId mk = hub.counter("chaos.switch_crash");
  TrackId t = hub.track("soil.sw0");
  for (int i = 1; i <= 5; ++i) {
    engine.schedule_at(at_ms(i), [&hub, c, g, mk, t, i] {
      hub.add(c, 100 * i);           // running counter level must ascend
      hub.set(g, 1e6 / i);           // gauge level may go anywhere
      if (i % 2 == 1) hub.mark(mk, i);
      SpanId s = hub.begin_span(t, "poll");
      hub.end_span(t, s);
    });
  }
  engine.run_for(Duration::ms(10));

  std::ostringstream os;
  write_chrome_trace(os, hub, {.reason = "parse-back"});
  auto root = JsonReader(os.str()).parse();
  ASSERT_TRUE(root.has_value()) << os.str();
  ASSERT_EQ(root->type, JsonValue::kObject);

  const JsonValue* events = root->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::kArray);

  std::size_t spans = 0, marks = 0, track_meta = 0;
  std::vector<std::pair<double, double>> counter_series;  // (ts, level)
  for (const JsonValue& e : events->array) {
    ASSERT_EQ(e.type, JsonValue::kObject);
    const JsonValue* ph = e.get("ph");
    ASSERT_NE(ph, nullptr);
    const JsonValue* name = e.get("name");
    ASSERT_NE(name, nullptr);
    if (ph->string == "X") {
      ++spans;
      ASSERT_NE(e.get("dur"), nullptr);
      EXPECT_GE(e.get("dur")->number, 0);
      EXPECT_EQ(name->string, "poll");
    } else if (ph->string == "i") {
      ++marks;
      EXPECT_EQ(name->string, "chaos.switch_crash");
    } else if (ph->string == "M") {
      ++track_meta;
    } else if (ph->string == "C" && name->string == "bus.up.bytes") {
      const JsonValue* args = e.get("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->get("value"), nullptr);
      counter_series.emplace_back(e.get("ts")->number,
                                  args->get("value")->number);
    }
  }

  // Every recorded span, mark, and track survives the round trip.
  EXPECT_EQ(spans, hub.tracer().spans(t).size());
  EXPECT_EQ(marks, hub.query().kind(EventKind::kMark).count());
  EXPECT_EQ(track_meta, hub.tracer().track_count());

  // Counter samples are the *running* level: ascending in time and value,
  // ending at the live registry total.
  ASSERT_EQ(counter_series.size(), 5u);
  for (std::size_t i = 1; i < counter_series.size(); ++i) {
    EXPECT_GT(counter_series[i].first, counter_series[i - 1].first);
    EXPECT_GE(counter_series[i].second, counter_series[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(counter_series.back().second, hub.registry().value(c));

  // The export header survives too.
  const JsonValue* other = root->get("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->get("clock")->string, "sim-virtual-time");
  EXPECT_EQ(other->get("reason")->string, "parse-back");
  EXPECT_DOUBLE_EQ(other->get("events_total")->number,
                   static_cast<double>(hub.events().total_appended()));
}

// --- Flight recorder ---------------------------------------------------------

TEST(FlightRecorder, TriggerDumpsValidTrace) {
  sim::Engine engine;
  Hub& hub = populated_hub(engine);
  std::string path = ::testing::TempDir() + "granary_flight_test.json";
  hub.flight().arm(path, /*last_events=*/2);
  EXPECT_TRUE(hub.flight().armed());
  EXPECT_TRUE(hub.flight().trigger("test-fault"));
  EXPECT_EQ(hub.flight().dumps(), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_TRUE(json_well_formed(body.str())) << body.str();
  EXPECT_NE(body.str().find("test-fault"), std::string::npos);
  std::remove(path.c_str());

  hub.flight().disarm();
  EXPECT_FALSE(hub.flight().trigger("after-disarm"));
}

}  // namespace
}  // namespace farm::telemetry

// Furrow (telemetry/prof.h) — wall-clock control-plane profiler.
//
// Covered here: call-tree shape (nesting, sibling merge, '/'-label
// splitting, recursion), task anchoring, self/max derivation under an
// injected deterministic clock, counter algebra and reset semantics,
// cross-thread merge (retired workers and FARM_THREADS 1/4/16
// bit-identity on a real placement solve), collapsed-stack and
// chrome-trace round trips, and the runtime-disabled paths.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "placement/generator.h"
#include "placement/heuristic.h"
#include "telemetry/export.h"
#include "telemetry/prof.h"
#include "util/pool.h"

using namespace farm;
using namespace farm::telemetry;
using prof::ProfNode;
using prof::Profiler;

namespace {

// Deterministic clocks. zero_clock makes every duration 0 (bit-identical
// trees at any thread count); step_clock advances 1 µs per reading, so a
// single-threaded test can predict totals exactly.
std::uint64_t zero_clock() { return 0; }

std::atomic<std::uint64_t> g_step{0};
std::uint64_t step_clock() { return 1000 * (g_step.fetch_add(1) + 1); }

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::instance().set_clock(&zero_clock);
    Profiler::instance().reset();
    Profiler::instance().set_enabled(true);
    g_step.store(0);
  }
  void TearDown() override {
    Profiler::instance().reset();
    Profiler::instance().set_clock(nullptr);  // real steady_clock
    Profiler::instance().set_enabled(true);   // the default
  }
};

const ProfNode* child(const ProfNode& parent, std::string_view name) {
  for (const ProfNode& c : parent.children)
    if (c.name == name) return &c;
  return nullptr;
}

}  // namespace

// --- Macros and the empty report ---------------------------------------------

TEST_F(ProfilerTest, MacrosCompileAndAreHarmless) {
  FARM_PROF_SCOPE("anymode/scope");
  FARM_PROF_TASK("anymode/task");
  FARM_PROF_COUNT("anymode.count", 1);
  SUCCEED();
}

TEST_F(ProfilerTest, ReportOnEmptySnapshotSaysDisabled) {
  std::ostringstream os;
  write_prof_report(os, prof::Snapshot{});
  EXPECT_NE(os.str().find("no data"), std::string::npos);
}

// --- Tree shape --------------------------------------------------------------

TEST_F(ProfilerTest, NestedScopesBuildTreeAndSiblingsMerge) {
  {
    FARM_PROF_SCOPE("a");
    { FARM_PROF_SCOPE("b"); }
    { FARM_PROF_SCOPE("b"); }
    { FARM_PROF_SCOPE("c"); }
  }
  prof::Snapshot snap = Profiler::instance().snapshot();
  ASSERT_EQ(snap.root.children.size(), 1u);
  const ProfNode* a = child(snap.root, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->count, 1u);
  ASSERT_EQ(a->children.size(), 2u);  // b and c, name-sorted
  EXPECT_EQ(a->children[0].name, "b");
  EXPECT_EQ(a->children[0].count, 2u);
  EXPECT_EQ(a->children[1].name, "c");
  EXPECT_EQ(a->children[1].count, 1u);
}

TEST_F(ProfilerTest, SlashLabelsSplitIntoPathSegments) {
  { FARM_PROF_SCOPE("x/y/z"); }
  { FARM_PROF_SCOPE("x/y/z"); }
  prof::Snapshot snap = Profiler::instance().snapshot();
  const ProfNode* x = child(snap.root, "x");
  ASSERT_NE(x, nullptr);
  const ProfNode* y = child(*x, "y");
  ASSERT_NE(y, nullptr);
  const ProfNode* z = child(*y, "z");
  ASSERT_NE(z, nullptr);
  // Count and max land on the leaf; intermediate segments only roll up
  // inclusive time.
  EXPECT_EQ(x->count, 0u);
  EXPECT_EQ(y->count, 0u);
  EXPECT_EQ(z->count, 2u);
  EXPECT_EQ(x->total_ns, z->total_ns);
}

TEST_F(ProfilerTest, RecursionNestsOneNodePerDepth) {
  struct Rec {
    static void run(int depth) {
      if (depth == 0) return;
      FARM_PROF_SCOPE("rec");
      run(depth - 1);
    }
  };
  Rec::run(3);
  prof::Snapshot snap = Profiler::instance().snapshot();
  const ProfNode* n = child(snap.root, "rec");
  for (int depth = 0; depth < 3; ++depth) {
    ASSERT_NE(n, nullptr) << "depth " << depth;
    EXPECT_EQ(n->count, 1u);
    n = child(*n, "rec");
  }
  EXPECT_EQ(n, nullptr);  // recursion stopped at depth 3
}

TEST_F(ProfilerTest, TaskScopeAnchorsAtRootNotUnderEnclosingScope) {
  {
    FARM_PROF_SCOPE("outer");
    FARM_PROF_TASK("job/item");
  }
  prof::Snapshot snap = Profiler::instance().snapshot();
  // "job" and "outer" are siblings: the task branch escaped the wall scope.
  ASSERT_EQ(snap.root.children.size(), 2u);
  const ProfNode* job = child(snap.root, "job");
  const ProfNode* outer = child(snap.root, "outer");
  ASSERT_NE(job, nullptr);
  ASSERT_NE(outer, nullptr);
  EXPECT_TRUE(outer->children.empty());
  const ProfNode* item = child(*job, "item");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->count, 1u);
}

// --- Timing under an injected clock ------------------------------------------

TEST_F(ProfilerTest, SelfTimeIsTotalMinusChildren) {
  Profiler::instance().set_clock(&step_clock);
  {
    FARM_PROF_SCOPE("outer");  // t0 = 1000
    {
      FARM_PROF_SCOPE("inner");  // t0 = 2000
    }                            // leaves at 3000 → dt 1000
  }                              // leaves at 4000 → dt 3000
  prof::Snapshot snap = Profiler::instance().snapshot();
  const ProfNode* outer = child(snap.root, "outer");
  ASSERT_NE(outer, nullptr);
  const ProfNode* inner = child(*outer, "inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->total_ns, 3000u);
  EXPECT_EQ(inner->total_ns, 1000u);
  EXPECT_EQ(outer->self_ns, 2000u);
  EXPECT_EQ(inner->self_ns, 1000u);
  EXPECT_EQ(outer->max_ns, 3000u);
  EXPECT_EQ(snap.root.total_ns, 3000u);
}

TEST_F(ProfilerTest, MaxTracksLongestSingleScope) {
  Profiler::instance().set_clock(&step_clock);
  { FARM_PROF_SCOPE("burst"); }  // dt 1000
  {
    FARM_PROF_SCOPE("burst");  // t0 = 3000
    g_step.fetch_add(5);       // skip 5 µs inside the scope
  }                            // leaves at 9000 → dt 6000
  prof::Snapshot snap = Profiler::instance().snapshot();
  const ProfNode* burst = child(snap.root, "burst");
  ASSERT_NE(burst, nullptr);
  EXPECT_EQ(burst->count, 2u);
  EXPECT_EQ(burst->total_ns, 7000u);
  EXPECT_EQ(burst->max_ns, 6000u);
}

// --- Counters ----------------------------------------------------------------

namespace {
void bump_cached_counter() { FARM_PROF_COUNT("t.cached", 1); }
}  // namespace

TEST_F(ProfilerTest, CountersSumDeltasAndMissingReadsZero) {
  for (int i = 0; i < 3; ++i) FARM_PROF_COUNT("t.alpha", 2);
  FARM_PROF_COUNT("t.alpha", 4);
  prof::Snapshot snap = Profiler::instance().snapshot();
  EXPECT_EQ(snap.counter("t.alpha"), 10u);
  EXPECT_EQ(snap.counter("t.never"), 0u);
  for (const prof::ProfCounter& c : snap.counters)
    EXPECT_NE(c.value, 0u) << c.name << ": zero counters must be dropped";
}

TEST_F(ProfilerTest, ResetZeroesButCachedSlotsStayValid) {
  bump_cached_counter();
  bump_cached_counter();
  bump_cached_counter();
  EXPECT_EQ(Profiler::instance().snapshot().counter("t.cached"), 3u);
  Profiler::instance().reset();
  EXPECT_TRUE(Profiler::instance().snapshot().empty());
  // The call site's cached thread-local slot pointer must still be live.
  bump_cached_counter();
  bump_cached_counter();
  EXPECT_EQ(Profiler::instance().snapshot().counter("t.cached"), 2u);
}

TEST_F(ProfilerTest, RuntimeDisableShortCircuitsEverything) {
  Profiler::instance().set_enabled(false);
  EXPECT_FALSE(Profiler::instance().enabled());
  {
    FARM_PROF_SCOPE("dark/scope");
    FARM_PROF_TASK("dark/task");
    FARM_PROF_COUNT("dark.count", 9);
  }
  util::ThreadPool pool(2);
  pool.parallel_for(4, [](std::size_t) {});
  EXPECT_TRUE(Profiler::instance().snapshot().empty());
  // Re-enabling resumes recording without a reset.
  Profiler::instance().set_enabled(true);
  { FARM_PROF_SCOPE("light"); }
  EXPECT_NE(child(Profiler::instance().snapshot().root, "light"), nullptr);
}

TEST_F(ProfilerTest, PoolDispatchCountersSurfaceWhileEnabled) {
  util::ThreadPool pool(2);
  pool.parallel_for(8, [](std::size_t) {});
  prof::Snapshot snap = Profiler::instance().snapshot();
  EXPECT_GE(snap.counter("pool.tasks"), 8u);
}

// --- Cross-thread merge ------------------------------------------------------

TEST_F(ProfilerTest, RetiredThreadsFoldIntoTheSnapshot) {
  auto work = [] {
    FARM_PROF_TASK("worker/job");
    FARM_PROF_COUNT("worker.items", 3);
  };
  std::thread t1(work), t2(work);
  t1.join();
  t2.join();
  // Both threads are dead; their trees must have retired into the
  // process-wide accumulator and merged path-wise.
  prof::Snapshot snap = Profiler::instance().snapshot();
  const ProfNode* worker = child(snap.root, "worker");
  ASSERT_NE(worker, nullptr);
  const ProfNode* job = child(*worker, "job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->count, 2u);
  EXPECT_EQ(snap.counter("worker.items"), 6u);
}

namespace {

// Profile one small placement solve and serialize everything thread-count
// invariant: both collapsed weights plus all non-pool counters.
// (pool.tasks_inline legitimately varies with the worker count, which is
// exactly why counters never appear in collapsed stacks.)
std::string profile_fingerprint_of_solve(int threads) {
  Profiler::instance().reset();
  util::ScopedThreads scoped(threads);
  placement::GeneratorSpec spec;
  spec.n_switches = 60;
  spec.n_tasks = 6;
  spec.seeds_per_task = 20;
  spec.seed = 7;
  placement::PlacementProblem problem = placement::generate_problem(spec);
  (void)placement::solve_heuristic(problem);
  prof::Snapshot snap = Profiler::instance().snapshot();
  std::ostringstream os;
  write_prof_collapsed(os, snap, CollapsedWeight::kCount);
  os << "--self--\n";
  write_prof_collapsed(os, snap, CollapsedWeight::kSelfNs);
  os << "--counters--\n";
  for (const prof::ProfCounter& c : snap.counters)
    if (c.name.rfind("pool.", 0) != 0) os << c.name << ' ' << c.value << '\n';
  return os.str();
}

}  // namespace

TEST_F(ProfilerTest, SolveProfileIsBitIdenticalAcrossThreadCounts) {
  // Zero clock (from the fixture): every duration is 0, so the whole
  // fingerprint — paths, counts, self weights, counters — must match
  // bit-for-bit at FARM_THREADS 1/4/16.
  std::string baseline = profile_fingerprint_of_solve(1);
  EXPECT_NE(baseline.find("placement;solve"), std::string::npos) << baseline;
  EXPECT_NE(baseline.find("placement;start"), std::string::npos) << baseline;
  EXPECT_NE(baseline.find("simplex"), std::string::npos) << baseline;
  EXPECT_NE(baseline.find("lp.simplex.pivots"), std::string::npos) << baseline;
  for (int threads : {4, 16}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(profile_fingerprint_of_solve(threads), baseline);
  }
}

// --- Collapsed-stack round trip ----------------------------------------------

TEST_F(ProfilerTest, CollapsedOutputRoundTripsTheTree) {
  Profiler::instance().set_clock(&step_clock);
  {
    FARM_PROF_SCOPE("ring");
    { FARM_PROF_SCOPE("gear"); }
    { FARM_PROF_SCOPE("gear"); }
  }
  { FARM_PROF_SCOPE("lone"); }
  prof::Snapshot snap = Profiler::instance().snapshot();

  std::ostringstream os;
  write_prof_collapsed(os, snap, CollapsedWeight::kSelfNs);
  std::map<std::string, std::uint64_t> parsed;
  std::istringstream in(os.str());
  std::string line;
  while (std::getline(in, line)) {
    std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    parsed[line.substr(0, sp)] =
        std::strtoull(line.c_str() + sp + 1, nullptr, 10);
  }

  // Every tree node appears exactly once with its self weight; with strict
  // stacks the self weights reconcile exactly against the root total.
  std::uint64_t self_sum = 0;
  std::string path;
  std::function<void(const ProfNode&)> walk = [&](const ProfNode& node) {
    std::size_t saved = path.size();
    if (!path.empty()) path += ';';
    path += node.name;
    auto it = parsed.find(path);
    ASSERT_NE(it, parsed.end()) << path;
    EXPECT_EQ(it->second, node.self_ns) << path;
    parsed.erase(it);
    self_sum += node.self_ns;
    for (const ProfNode& c : node.children) walk(c);
    path.resize(saved);
  };
  for (const ProfNode& c : snap.root.children) walk(c);
  EXPECT_TRUE(parsed.empty());
  EXPECT_LE(self_sum, snap.root.total_ns);
  EXPECT_EQ(self_sum, snap.root.total_ns);  // exact for strict stacks
}

// --- Chrome-trace round trip -------------------------------------------------

// Tiny recursive-descent JSON reader (mirrors the one in telemetry_test.cpp)
// — enough structure to walk the exporter's output back out. Deliberately
// strict: any syntax surprise fails the parse and the test.
namespace {

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

}  // namespace

TEST_F(ProfilerTest, ChromeTraceParsesBackWithNestedSyntheticSpans) {
  Profiler::instance().set_clock(&step_clock);
  {
    FARM_PROF_SCOPE("ring");
    { FARM_PROF_SCOPE("gear"); }
    { FARM_PROF_SCOPE("gear"); }
  }
  FARM_PROF_COUNT("t.trace", 5);
  prof::Snapshot snap = Profiler::instance().snapshot();
  const ProfNode* ring = child(snap.root, "ring");
  ASSERT_NE(ring, nullptr);
  const ProfNode* gear = child(*ring, "gear");
  ASSERT_NE(gear, nullptr);

  std::ostringstream os;
  write_prof_chrome_trace(os, snap, {.reason = "unit"});
  auto root = JsonReader(os.str()).parse();
  ASSERT_TRUE(root.has_value()) << os.str();
  const JsonValue* other = root->get("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->get("clock")->string, "wall-clock");
  EXPECT_EQ(other->get("reason")->string, "unit");

  const JsonValue* events = root->get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, const JsonValue*> spans;     // X events by name
  std::map<std::string, const JsonValue*> counters;  // C events by name
  bool process_named = false;
  for (const JsonValue& ev : events->array) {
    ASSERT_EQ(ev.get("pid")->number, 2) << "all rows ride the Furrow pid";
    const std::string& ph = ev.get("ph")->string;
    const std::string& name = ev.get("name")->string;
    if (ph == "X") spans[name] = &ev;
    if (ph == "C") counters[name] = &ev;
    if (ph == "M" && name == "process_name")
      process_named = ev.get("args")->get("name")->string ==
                      "farm control plane (wall-clock)";
  }
  EXPECT_TRUE(process_named);

  // Aggregate spans: one X event per tree node, dur = inclusive µs, count
  // in args; the synthetic layout nests children inside their parent.
  ASSERT_TRUE(spans.count("ring"));
  ASSERT_TRUE(spans.count("gear"));
  const JsonValue& xr = *spans["ring"];
  const JsonValue& xg = *spans["gear"];
  const double eps = 1e-3;  // exporter prints µs with %.3f
  EXPECT_NEAR(xr.get("dur")->number, static_cast<double>(ring->total_ns) / 1e3,
              eps);
  EXPECT_NEAR(xg.get("dur")->number, static_cast<double>(gear->total_ns) / 1e3,
              eps);
  EXPECT_EQ(xg.get("args")->get("count")->number, 2);
  EXPECT_NEAR(xr.get("args")->get("self_us")->number,
              static_cast<double>(ring->self_ns) / 1e3, eps);
  double r0 = xr.get("ts")->number, r1 = r0 + xr.get("dur")->number;
  double c0 = xg.get("ts")->number, c1 = c0 + xg.get("dur")->number;
  EXPECT_GE(c0, r0 - eps);
  EXPECT_LE(c1, r1 + eps);

  ASSERT_TRUE(counters.count("t.trace"));
  EXPECT_EQ(counters["t.trace"]->get("args")->get("value")->number, 5);
  EXPECT_EQ(counters["t.trace"]->get("tid")->number, 0);
}

// --- Ranked report -----------------------------------------------------------

TEST_F(ProfilerTest, ReportRanksBySelfTimeAndListsCounters) {
  Profiler::instance().set_clock(&step_clock);
  {
    FARM_PROF_SCOPE("hot");
    g_step.fetch_add(50);  // 50 µs of self time
  }
  { FARM_PROF_SCOPE("cold"); }
  FARM_PROF_COUNT("t.report", 11);
  prof::Snapshot snap = Profiler::instance().snapshot();

  std::ostringstream os;
  write_prof_report(os, snap);
  std::string out = os.str();
  EXPECT_NE(out.find("total wall:"), std::string::npos);
  EXPECT_NE(out.find("hot"), std::string::npos);
  EXPECT_NE(out.find("cold"), std::string::npos);
  EXPECT_LT(out.find("hot"), out.find("cold")) << "ranked by self desc:\n"
                                               << out;
  EXPECT_NE(out.find("t.report"), std::string::npos);
  EXPECT_NE(out.find("11"), std::string::npos);

  // top_n truncates the table, not the counters.
  std::ostringstream top1;
  write_prof_report(top1, snap, 1);
  EXPECT_NE(top1.str().find("hot"), std::string::npos);
  EXPECT_EQ(top1.str().find("cold"), std::string::npos);
  EXPECT_NE(top1.str().find("t.report"), std::string::npos);
}

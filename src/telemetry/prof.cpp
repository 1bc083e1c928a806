#include "telemetry/prof.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>

#include "util/pool.h"

namespace farm::telemetry::prof {
namespace detail {

std::atomic<bool> g_enabled{true};

namespace {

std::atomic<Profiler::ClockFn> g_clock{nullptr};

// Per-thread recording state. Node storage is a deque so addresses handed
// to live Scope objects stay stable; counters are a std::map for the same
// reason (node-stable references for the cached FARM_PROF_COUNT slots).
struct ThreadProfile {
  RawNode root;
  RawNode* current = &root;
  std::deque<RawNode> arena;
  std::map<std::string, std::uint64_t> counters;

  ThreadProfile();
  ~ThreadProfile();
  void zero() {
    auto wipe = [](RawNode& n) { n.count = n.total_ns = n.max_ns = 0; };
    wipe(root);
    for (RawNode& n : arena) wipe(n);
    for (auto& [name, v] : counters) v = 0;
  }
};

// --- Canonical fold ---------------------------------------------------------
//
// Raw per-thread trees keep whole labels ("placement/step3"); the canonical
// tree splits them into path segments, merges equal-named siblings, and is
// what snapshots, exporters, and the retired-thread accumulator share.
// Every operation below is a commutative sum/max per path, so the fold
// result is independent of thread registration or retirement order.

ProfNode* child_named(ProfNode& parent, std::string_view name) {
  for (ProfNode& c : parent.children)
    if (c.name == name) return &c;
  parent.children.push_back(ProfNode{std::string(name)});
  return &parent.children.back();
}

// Walk the '/'-separated segments of `label` below `parent`, accumulating
// the raw node's inclusive time into every segment (rollup) and its count /
// max into the last one. Returns the leaf segment node.
ProfNode* descend(ProfNode& parent, const RawNode& src) {
  ProfNode* node = &parent;
  std::string_view rest(src.label);
  while (true) {
    auto slash = rest.find('/');
    std::string_view seg = rest.substr(0, slash);
    if (seg.empty()) seg = "?";
    node = child_named(*node, seg);
    node->total_ns += src.total_ns;
    if (slash == std::string_view::npos) break;
    rest.remove_prefix(slash + 1);
  }
  node->count += src.count;
  node->max_ns = std::max(node->max_ns, src.max_ns);
  return node;
}

// True when the subtree recorded anything. reset() zeroes raw nodes in
// place (their addresses are pinned by live Scope objects), so a live
// thread's tree keeps empty husks that must not reappear in snapshots.
bool raw_nonzero(const RawNode& n) {
  if (n.count || n.total_ns) return true;
  for (const RawNode* c : n.children)
    if (raw_nonzero(*c)) return true;
  return false;
}

void fold_raw(ProfNode& dst, const RawNode& src_parent) {
  for (const RawNode* c : src_parent.children)
    if (raw_nonzero(*c)) fold_raw(*descend(dst, *c), *c);
}

// Name-sort children and derive self time, depth first.
void finalize(ProfNode& node) {
  std::sort(
      node.children.begin(), node.children.end(),
      [](const ProfNode& a, const ProfNode& b) { return a.name < b.name; });
  std::uint64_t child_total = 0;
  for (ProfNode& c : node.children) {
    finalize(c);
    child_total += c.total_ns;
  }
  node.self_ns = node.total_ns > child_total ? node.total_ns - child_total : 0;
}

// --- Process-wide registry --------------------------------------------------

struct Registry {
  std::mutex mu;
  std::vector<ThreadProfile*> live;  // registration order
  // Threads that already exited, pre-folded to canonical form (children
  // unsorted, self not yet derived — both happen at snapshot time).
  ProfNode retired_root;
  std::map<std::string, std::uint64_t> retired_counters;
};

// Leaked deliberately: worker threads of static pools retire during static
// destruction, after function-local statics would have been destroyed.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

ThreadProfile::ThreadProfile() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.live.push_back(this);
}

ThreadProfile::~ThreadProfile() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  fold_raw(reg.retired_root, root);
  for (const auto& [name, v] : counters)
    if (v) reg.retired_counters[name] += v;
  reg.live.erase(std::find(reg.live.begin(), reg.live.end(), this));
}

ThreadProfile& tls() {
  static thread_local ThreadProfile tp;
  return tp;
}

}  // namespace

std::uint64_t now_ns() {
  if (Profiler::ClockFn fn = g_clock.load(std::memory_order_relaxed))
    return fn();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

RawNode* enter(const char* label) {
  ThreadProfile& tp = tls();
  RawNode* cur = tp.current;
  for (RawNode* c : cur->children) {
    // Pointer identity first: the common case is the same call site's
    // literal, and only distinct TUs spelling the same label fall through
    // to strcmp.
    if (c->label == label || std::strcmp(c->label, label) == 0) {
      tp.current = c;
      return c;
    }
  }
  tp.arena.emplace_back();
  RawNode* node = &tp.arena.back();
  node->label = label;
  node->parent = cur;
  cur->children.push_back(node);
  tp.current = node;
  return node;
}

void leave(RawNode* node, std::uint64_t dt_ns) {
  node->count += 1;
  node->total_ns += dt_ns;
  if (dt_ns > node->max_ns) node->max_ns = dt_ns;
  tls().current = node->parent;
}

RawNode* anchor_to_root() {
  ThreadProfile& tp = tls();
  RawNode* saved = tp.current;
  tp.current = &tp.root;
  return saved;
}

void restore(RawNode* saved) { tls().current = saved; }

std::uint64_t* counter_slot(const char* name) { return &tls().counters[name]; }

}  // namespace detail

std::uint64_t Snapshot::counter(std::string_view name) const {
  for (const ProfCounter& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

Profiler& Profiler::instance() {
  static Profiler* p = new Profiler;
  return *p;
}

void Profiler::set_clock(ClockFn clock) {
  detail::g_clock.store(clock, std::memory_order_relaxed);
}

Snapshot Profiler::snapshot() const {
  using detail::registry;
  Snapshot snap;
  detail::Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  snap.root = reg.retired_root;
  std::map<std::string, std::uint64_t> counters = reg.retired_counters;
  for (const detail::ThreadProfile* tp : reg.live) {
    detail::fold_raw(snap.root, tp->root);
    for (const auto& [name, v] : tp->counters)
      if (v) counters[name] += v;
  }
  if (enabled()) {
    util::ThreadPool::Stats ps = util::ThreadPool::stats();
    if (ps.tasks) counters["pool.tasks"] += ps.tasks;
    if (ps.inline_tasks) counters["pool.tasks_inline"] += ps.inline_tasks;
  }
  snap.counters.reserve(counters.size());
  for (const auto& [name, v] : counters) snap.counters.push_back({name, v});
  std::uint64_t total = 0;
  for (const ProfNode& c : snap.root.children) total += c.total_ns;
  snap.root.total_ns = total;
  detail::finalize(snap.root);
  return snap;
}

void Profiler::reset() {
  detail::Registry& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.retired_root = ProfNode{};
  reg.retired_counters.clear();
  for (detail::ThreadProfile* tp : reg.live) tp->zero();
  util::ThreadPool::reset_stats();
}

}  // namespace farm::telemetry::prof

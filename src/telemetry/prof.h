// Furrow — wall-clock control-plane profiler.
//
// Granary's Tracer observes the *simulated fabric* on virtual time; Furrow
// observes FARM's own control plane — placement heuristic steps, simplex /
// MILP solves, Scarecrow ticks, the Combine pool — on wall-clock time, so
// "where does the 1.4 s solve actually go" has a measured answer.
//
// Model:
//   * FARM_PROF_SCOPE("label") — RAII scope on a thread-local call stack.
//     Closed scopes aggregate into a per-thread call tree of
//     {count, total ns, max ns} per path; self time is derived at snapshot
//     (total − Σ children, exact for strict stacks).
//   * FARM_PROF_TASK("a/b") — a scope *anchored at the thread's root*,
//     for lambdas handed to the Combine pool: whether the item executes on
//     a worker or inline on the submitting thread (FARM_THREADS=1, nested
//     batches), its path is the same, so merged trees are bit-identical at
//     any thread count. Labels may contain '/', which exporters split into
//     path segments — a task named "placement/step3" files under the same
//     "placement" frame as the main thread's "placement/solve" scope.
//     Wall-clock scopes and task branches are deliberately *siblings*, not
//     parent/child: a task branch sums CPU time across workers and may
//     exceed any one scope's elapsed time.
//   * FARM_PROF_COUNT("name", n) — named monotonic counter (simplex
//     pivots, MILP nodes, migration moves, pool tasks, ...); thread-local
//     cells, summed at snapshot. Counts, unlike times, are invariant under
//     FARM_THREADS because Combine executes identical work at any width.
//
// Merging: per-thread trees retire into the process-wide Profiler when
// their thread exits (Combine pools are per-solve, so workers die between
// snapshots); snapshot() folds retired state plus live threads in
// registration-index order into one canonical tree (children name-sorted,
// commutative sums), so the result is independent of scheduling.
//
// Cost discipline: set_enabled(false) short-circuits every macro behind
// one relaxed atomic load. Scope/counter costs and the end-to-end solve
// overhead gate (≤2%) live in bench/bench_profiler.cpp.
//
// Snapshot/reset expect quiescence: take them between parallel regions,
// not while a Combine batch is in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace farm::telemetry::prof {

// --- Canonical (merged) snapshot --------------------------------------------

struct ProfNode {
  std::string name;            // one path segment
  std::uint64_t count = 0;     // scope closures attributed to this path
  std::uint64_t total_ns = 0;  // inclusive
  std::uint64_t self_ns = 0;   // total − Σ children (clamped at 0)
  std::uint64_t max_ns = 0;    // longest single scope
  std::vector<ProfNode> children;  // sorted by name
};

struct ProfCounter {
  std::string name;
  std::uint64_t value = 0;
};

struct Snapshot {
  ProfNode root;                      // name ""; total = Σ children totals
  std::vector<ProfCounter> counters;  // sorted by name
  bool empty() const { return root.children.empty() && counters.empty(); }
  // 0 when the counter never ticked.
  std::uint64_t counter(std::string_view name) const;
};

// --- Hot-path internals (macro support) -------------------------------------

namespace detail {

// Runtime gate, shared by every macro; relaxed is fine — a stale read only
// drops or admits one scope around a toggle.
extern std::atomic<bool> g_enabled;

// Raw per-thread call-tree node. Labels must have static storage duration
// (the macros pass string literals); pointer identity is the fast path of
// child lookup, content equality the slow one.
struct RawNode {
  const char* label = "";
  RawNode* parent = nullptr;
  std::vector<RawNode*> children;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

std::uint64_t now_ns();
RawNode* enter(const char* label);
void leave(RawNode* node, std::uint64_t dt_ns);
// Detach the thread's current position to its root (task anchoring);
// restore() re-attaches the saved position.
RawNode* anchor_to_root();
void restore(RawNode* saved);
// Find-or-create this thread's counter cell; the returned pointer stays
// valid for the thread's lifetime (reset() zeroes values, never frees).
std::uint64_t* counter_slot(const char* name);

}  // namespace detail

// RAII scope; nests under the thread's current scope.
class Scope {
 public:
  explicit Scope(const char* label) {
    if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
    node_ = detail::enter(label);
    t0_ = detail::now_ns();
  }
  ~Scope() {
    if (node_) detail::leave(node_, detail::now_ns() - t0_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  detail::RawNode* node_ = nullptr;
  std::uint64_t t0_ = 0;
};

// RAII scope anchored at the thread root — see the file comment. Use as the
// first statement of any lambda handed to util::ThreadPool.
class TaskScope {
 public:
  explicit TaskScope(const char* label) {
    if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
    saved_ = detail::anchor_to_root();
    anchored_ = true;
    node_ = detail::enter(label);
    t0_ = detail::now_ns();
  }
  ~TaskScope() {
    if (node_) detail::leave(node_, detail::now_ns() - t0_);
    if (anchored_) detail::restore(saved_);
  }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  detail::RawNode* node_ = nullptr;
  detail::RawNode* saved_ = nullptr;
  std::uint64_t t0_ = 0;
  bool anchored_ = false;
};

// --- Process-wide aggregation ----------------------------------------------

class Profiler {
 public:
  // Leaky singleton: worker threads retire into it during static
  // destruction, so it must outlive every thread.
  static Profiler& instance();

  bool enabled() const {
    return detail::g_enabled.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    detail::g_enabled.store(on, std::memory_order_relaxed);
  }

  // Wall-clock source; nullptr restores steady_clock. Tests inject a
  // deterministic clock so merged trees can be compared bit-for-bit.
  using ClockFn = std::uint64_t (*)();
  void set_clock(ClockFn clock);

  // Merged view of everything recorded so far: retired threads plus live
  // ones, folded in registration-index order into the canonical tree.
  // Includes the Combine pool dispatch counters (pool.tasks,
  // pool.tasks_inline) while the profiler is enabled.
  Snapshot snapshot() const;

  // Zeroes all recorded data (retired and live trees, counters, pool
  // stats) without invalidating cached node/counter pointers. Test
  // isolation; requires quiescence like snapshot().
  void reset();
};

}  // namespace farm::telemetry::prof

// Statement macros.
#define FARM_PROF_CONCAT_INNER(a, b) a##b
#define FARM_PROF_CONCAT(a, b) FARM_PROF_CONCAT_INNER(a, b)

#define FARM_PROF_SCOPE(label) \
  ::farm::telemetry::prof::Scope FARM_PROF_CONCAT(farm_prof_scope_, \
                                                  __LINE__)(label)
#define FARM_PROF_TASK(label) \
  ::farm::telemetry::prof::TaskScope FARM_PROF_CONCAT(farm_prof_task_, \
                                                      __LINE__)(label)
// The slot pointer is resolved once per call site per thread; afterwards an
// increment is one TLS-cached add behind the enabled check.
#define FARM_PROF_COUNT(name, delta)                                        \
  do {                                                                      \
    if (::farm::telemetry::prof::detail::g_enabled.load(                    \
            std::memory_order_relaxed)) {                                   \
      static thread_local std::uint64_t* farm_prof_cell =                   \
          ::farm::telemetry::prof::detail::counter_slot(name);              \
      *farm_prof_cell += static_cast<std::uint64_t>(delta);                 \
    }                                                                       \
  } while (0)

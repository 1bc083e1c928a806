// Combine — deterministic parallel execution for embarrassingly parallel
// hot paths (placement LP batches, migration-benefit evaluation).
//
// Design rules that keep results bit-identical to a sequential run:
//   * work is expressed as a pure function of the item index;
//   * results land in an index-addressed slot (parallel_map) or the caller
//     reduces them in index order after the barrier — never in completion
//     order;
//   * a pool of size 1 (or FARM_THREADS=1) executes inline on the calling
//     thread, so the sequential path is literally the same code.
//
// Thread count resolution: explicit argument > scoped override (tests) >
// FARM_THREADS environment variable > hardware concurrency.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace farm::util {

class ThreadPool {
 public:
  // threads == 0 resolves via default_threads(); the pool never spawns more
  // workers than items are offered, and a 1-thread pool spawns none.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  // Runs fn(i) for every i in [0, n); blocks until all calls returned.
  // Calls may execute on any worker (or inline); fn must not depend on
  // execution order. Nested parallel_for from inside a worker runs inline
  // (no deadlock, no oversubscription).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Ordered reduction: results[i] = fn(i), returned in index order
  // regardless of which worker computed them. T must be default- and
  // move-constructible.
  template <typename T, typename Fn>
  std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  // FARM_THREADS env var (clamped to >= 1), else hardware concurrency;
  // a scoped override (below) wins over both.
  static int default_threads();

  // Process-lifetime dispatch statistics across every pool, surfaced by the
  // Furrow profiler as pool.tasks / pool.tasks_inline: `tasks` counts items
  // offered to parallel_for, `inline_tasks` the subset executed on the
  // submitting thread with no worker handoff (1-thread pools, single-item
  // batches, nested calls). Two relaxed atomics bumped once per batch.
  struct Stats {
    std::uint64_t tasks = 0;
    std::uint64_t inline_tasks = 0;
  };
  static Stats stats();
  static void reset_stats();

  // Process-wide pool sized default_threads() at first use. Call sites that
  // honour a per-call thread override construct their own pool instead.
  static ThreadPool& shared();

 private:
  struct Job {
    std::uint64_t generation = 0;
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t next = 0;     // next index to claim (under mutex_)
    std::size_t pending = 0;  // indices not yet completed
  };

  void worker_loop();

  int size_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait for a new generation
  std::condition_variable done_cv_;  // submitter waits for pending == 0
  Job job_;
  bool shutdown_ = false;
  std::mutex submit_mutex_;  // one parallel_for at a time per pool
};

// Scoped thread-count override, strongest in the resolution order. Tests
// use it to pin FARM_THREADS-independent behaviour (e.g. asserting the
// 1-thread and 16-thread solves agree) without mutating the environment.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads);
  ~ScopedThreads();
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int saved_;
};

}  // namespace farm::util

// Combine: deterministic parallel placement.
//
// BM_PlacementParallel — the 10k-seed placement instance of Fig. 7's top
// end, solved with the Combine worker pool pinned (util::ScopedThreads) to
// 1, 2, 4 and 8 threads. Two claims under test:
//
//   1. Determinism: the parallel placements are bit-identical to the
//      sequential run at every thread count (hard shape check).
//   2. Speedup: ≥2× at 8 threads — checked only when the host actually has
//      ≥8 hardware threads; on smaller machines the measured ratio is
//      still recorded (with the core count) so the trajectory stays
//      comparable across hosts.
//
// Results → BENCH_combine.json; every row carries the solve's farm_threads
// and the host's hw_threads.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "placement/generator.h"
#include "placement/heuristic.h"
#include "util/pool.h"

using namespace farm;
using namespace farm::placement;

namespace {

bool same_placement(const PlacementResult& a, const PlacementResult& b) {
  if (a.placements.size() != b.placements.size()) return false;
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    const auto& x = a.placements[i];
    const auto& y = b.placements[i];
    if (x.seed != y.seed || x.node != y.node || x.variant != y.variant ||
        x.utility != y.utility || x.alloc.vCPU != y.alloc.vCPU ||
        x.alloc.RAM != y.alloc.RAM || x.alloc.TCAM != y.alloc.TCAM ||
        x.alloc.PCIe != y.alloc.PCIe)
      return false;
  }
  return a.total_utility == b.total_utility;
}

}  // namespace

int main() {
  bench::BenchJson json("combine");
  unsigned hw = std::thread::hardware_concurrency();
  std::printf("Combine — parallel placement (%u hardware threads)\n\n", hw);

  // --- BM_PlacementParallel ----------------------------------------------
  GeneratorSpec spec;
  spec.n_switches = 1040;
  spec.n_tasks = 10;
  spec.seeds_per_task = 1000;  // 10k seeds, Fig. 7 top end
  spec.seed = 42;
  auto problem = generate_problem(spec);

  std::printf("BM_PlacementParallel — %d seeds, %d switches\n",
              spec.n_tasks * spec.seeds_per_task, spec.n_switches);
  std::printf("%8s | %10s %10s %10s\n", "threads", "t(s)", "speedup",
              "identical");

  auto solve_at = [&](int threads) {
    util::ScopedThreads scoped(threads);
    return solve_heuristic(problem);
  };
  auto params = [&](int threads) {
    return std::vector<bench::BenchParam>{
        bench::param("farm_threads", threads),
        bench::param("hw_threads", static_cast<int>(hw))};
  };
  auto record_solve = [&](int threads, double seconds) {
    auto p = params(threads);
    p.push_back(bench::param("seeds", spec.n_tasks * spec.seeds_per_task));
    json.record("solve_seconds", seconds, "s", std::move(p));
  };

  auto base = solve_at(1);
  double t1 = base.solve_seconds;
  record_solve(1, t1);
  std::printf("%8d | %10.2f %10s %10s\n", 1, t1, "1.00x", "-");

  bool identical = true;
  double speedup8 = 1;
  for (int threads : {2, 4, 8}) {
    auto r = solve_at(threads);
    bool same = same_placement(base, r) && base.lp_solves == r.lp_solves;
    identical &= same;
    double speedup = r.solve_seconds > 0 ? t1 / r.solve_seconds : 0;
    if (threads == 8) speedup8 = speedup;
    record_solve(threads, r.solve_seconds);
    json.record("speedup", speedup, "x", params(threads));
    std::printf("%8d | %10.2f %9.2fx %10s\n", threads, r.solve_seconds,
                speedup, same ? "yes" : "NO");
  }

  // Determinism is unconditional; the 2x bar needs the cores to exist.
  bool ok = identical;
  if (hw >= 8) ok &= speedup8 >= 2.0;
  std::printf("\nparallel == sequential: %s; 8-thread speedup %.2fx%s\n",
              identical ? "HOLDS" : "VIOLATED", speedup8,
              hw >= 8 ? (speedup8 >= 2.0 ? " (>=2x HOLDS)" : " (<2x VIOLATED)")
                      : " (host has <8 hardware threads; bar not applied)");
  return ok ? 0 : 1;
}

// Memoized re-placement at mega-fabric scale: 100k seeds across 1040
// switches (the paper's top-end fabric, §VI-D). The Seeder keeps one
// SolveMemo across re-solves, so after a single seed arrival or departure
// solve_heuristic re-runs Algorithm 1 with every unchanged LP answered
// from the memo. This bench measures that re-solve against a memo-less
// solve of the same problem and gates it:
//
//   * at FARM_THREADS=1, the memo'd arrival and departure each re-solve in
//     under a second;
//   * both are bit-identical to a memo-less solve (compared field by
//     field, not within a tolerance), at 1 thread and at the resolved
//     FARM_THREADS;
//   * at FARM_THREADS=1, the memo'd arrival is at least as fast as the
//     memo-less one (speed-up ≥ 1).
//
// At the resolved FARM_THREADS (hardware cores unless the variable is set)
// the speed-up is recorded but not gated: every memo lookup takes one
// mutex, so the memo's win shrinks, or inverts, as workers are added.
//
// Exit is non-zero if any gate fails; scripts/verify-all.sh chains this
// fatally. Results → BENCH_incremental.json (per-pass rows carry a
// farm_threads param).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_json.h"

#include "placement/generator.h"
#include "placement/heuristic.h"
#include "placement/memo.h"
#include "placement/model.h"
#include "util/pool.h"

using namespace farm::placement;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Bit-identical: every placement field equal (doubles compared exactly),
// same MU. lp_solves is a cache-miss diagnostic, not part of the contract.
bool identical(const PlacementResult& a, const PlacementResult& b) {
  if (a.placements.size() != b.placements.size()) return false;
  if (a.total_utility != b.total_utility) return false;
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    const auto& x = a.placements[i];
    const auto& y = b.placements[i];
    if (x.seed != y.seed || x.node != y.node || x.variant != y.variant ||
        x.utility != y.utility || !(x.alloc == y.alloc))
      return false;
  }
  return true;
}

struct Pass {
  double arrival_seconds = 0;
  double scratch_seconds = 0;  // memo-less arrival
  double departure_seconds = 0;
  bool matches_memo_less = false;  // arrival and departure
  double speedup() const {
    return arrival_seconds > 0 ? scratch_seconds / arrival_seconds : 0.0;
  }
};

// One memo, warmed by a solve of `base`; then the arrival re-solve through
// it, the same arrival without it, and the departure back to `base`, all
// at `threads` workers.
Pass run_pass(const PlacementProblem& base, const PlacementProblem& arrival,
              const PlacementResult& base_reference, int threads) {
  farm::util::ScopedThreads scoped(threads);
  SolveMemo memo;
  const HeuristicOptions memoized{.memo = &memo};
  solve_heuristic(base, memoized);

  Pass pass;
  auto t0 = std::chrono::steady_clock::now();
  auto arrival_memoized = solve_heuristic(arrival, memoized);
  pass.arrival_seconds = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  auto arrival_scratch = solve_heuristic(arrival);
  pass.scratch_seconds = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  auto departure_memoized = solve_heuristic(base, memoized);
  pass.departure_seconds = seconds_since(t0);

  pass.matches_memo_less = identical(arrival_memoized, arrival_scratch) &&
                           identical(departure_memoized, base_reference);
  std::printf("farm_threads %-3d  arrival %.3fs (memo-less %.3fs, %.2fx)  "
              "departure %.3fs  identical %s\n",
              threads, pass.arrival_seconds, pass.scratch_seconds,
              pass.speedup(), pass.departure_seconds,
              pass.matches_memo_less ? "yes" : "NO");
  return pass;
}

void record(farm::bench::BenchJson& out, const Pass& pass, int threads) {
  const std::vector<farm::bench::BenchParam> at{
      farm::bench::param("farm_threads", threads)};
  out.record("arrival_seconds", pass.arrival_seconds, "seconds", at);
  out.record("arrival_scratch_seconds", pass.scratch_seconds, "seconds", at);
  out.record("arrival_speedup", pass.speedup(), "x", at);
  out.record("departure_seconds", pass.departure_seconds, "seconds", at);
  out.record("identical", pass.matches_memo_less ? 1.0 : 0.0, "bool", at);
}

}  // namespace

int main() {
  GeneratorSpec spec;
  spec.n_switches = 1040;
  spec.n_tasks = 100;
  spec.seeds_per_task = 1000;  // 100k seeds total
  spec.seed = 7;
  auto problem = generate_problem(spec);
  std::printf("memoized re-placement — %zu seeds, %zu switches\n\n",
              problem.seeds.size(), problem.switches.size());

  auto arrival_problem = problem;
  SeedModel newcomer = arrival_problem.seeds.front();
  newcomer.id = "bench/arrival#0";
  newcomer.candidates.resize(1);  // lands on exactly one switch
  arrival_problem.seeds.push_back(newcomer);

  const int hw_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  const int farm_threads = farm::util::ThreadPool::default_threads();
  farm::bench::BenchJson out("incremental");
  out.record("seeds", static_cast<double>(problem.seeds.size()), "count");
  out.record("switches", static_cast<double>(problem.switches.size()), "count");
  out.record("hw_threads", hw_threads, "count");
  out.record("farm_threads", farm_threads, "count");

  // The memo-less solve of the base problem: the departure's reference.
  PlacementResult base_reference;
  double full_seconds = 0;
  {
    farm::util::ScopedThreads sequential(1);
    auto t0 = std::chrono::steady_clock::now();
    base_reference = solve_heuristic(problem);
    full_seconds = seconds_since(t0);
  }
  std::printf("full solve (memo-less, 1 thread) %.3fs  (MU %.0f)\n",
              full_seconds, base_reference.total_utility);
  out.record("full_solve_seconds", full_seconds, "seconds");

  const Pass one = run_pass(problem, arrival_problem, base_reference, 1);
  record(out, one, 1);
  bool identical_everywhere = one.matches_memo_less;
  if (farm_threads != 1) {
    const Pass wide =
        run_pass(problem, arrival_problem, base_reference, farm_threads);
    record(out, wide, farm_threads);
    identical_everywhere = identical_everywhere && wide.matches_memo_less;
  }

  const bool sub_second =
      one.arrival_seconds < 1.0 && one.departure_seconds < 1.0;
  const bool memo_wins = one.speedup() >= 1.0;
  out.record("sub_second_gate", sub_second ? 1.0 : 0.0, "bool");
  out.record("identical_gate", identical_everywhere ? 1.0 : 0.0, "bool");
  out.record("speedup_gate", memo_wins ? 1.0 : 0.0, "bool");
  std::printf("\nsub-second at 1 thread: %s\n"
              "bit-identical to memo-less: %s\n"
              "memo beats memo-less at 1 thread: %s\n",
              sub_second ? "HOLDS" : "VIOLATED",
              identical_everywhere ? "HOLDS" : "VIOLATED",
              memo_wins ? "HOLDS" : "VIOLATED");
  return sub_second && identical_everywhere && memo_wins ? 0 : 1;
}
